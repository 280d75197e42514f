package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark runs from its own directory (bench/): build output and
// per-run scratch go under .build/, reports under out/, and the module
// it measures is the parent directory.
const (
	buildDir = ".build"
	outDir   = "out"
	repoRoot = ".."
)

// buildServer compiles cmd/mpserve from the checkout the benchmark sits
// in and returns the binary's absolute path.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "mpserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mpserve")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/mpserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one process of a deployment, or, for an in-process
// composition, the benchmark's own process standing in for all of them.
type server struct {
	role string // "router", "node" or "standalone"
	pid  int
}

// deployment is a running system under test: the public API's base URL,
// the processes behind it and the API keys signed up on it.
type deployment struct {
	edge     string
	servers  []server
	dataDirs []string // the storage processes' -data directories, if durable
	keys     []string
	nextKey  atomic.Uint64
	client   *http.Client
	stop     func()
}

// newClient is the one shared keep-alive transport every request of a run
// goes through.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256},
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// process is one spawned server and the channel its exit closes.
type process struct {
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{}
}

// spawn starts mpserve in its own process group (so the group can be
// killed as one) with the parent-death signal set (so a killed benchmark
// leaves nothing behind).
func spawn(bin, logPath string, args ...string) (*process, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &process{cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // "signal: killed" is the expected outcome
		close(p.exited)
	}()
	return p, nil
}

// kill kills the process group and waits until the process has ended.
func (p *process) kill() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-p.exited
	p.log.Close()
}

// waitReady polls url until it answers 200, the process exits, or 30 s
// pass.
func (p *process) waitReady(client *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			deadline = time.Now()
		case <-time.After(10 * time.Millisecond):
		}
	}
	tail, _ := os.ReadFile(p.log.Name())
	if len(tail) > 2000 {
		tail = tail[len(tail)-2000:]
	}
	return fmt.Errorf("%s not ready; log tail:\n%s", url, tail)
}

// startProcesses launches the real binaries for w under runDir: one
// durable standalone server, or four nodes and a router as 2 shards x 2
// members. Routers run with -health-interval 0: with the loop on,
// anti-entropy can ship a batch to a replica between a write's primary
// and replica calls, the replica answers "duplicate _id", and the client
// gets a 400 for a write that was applied.
func startProcesses(bin string, w workload, runDir string) (*deployment, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	var procs []*process
	d := &deployment{client: newClient()}
	d.stop = func() {
		for _, p := range procs {
			p.kill()
		}
		d.client.CloseIdleConnections()
		os.RemoveAll(runDir)
	}
	start := func(role, name string, args ...string) (string, error) {
		addr, err := freeAddr()
		if err != nil {
			return "", err
		}
		if w.durable && role != "router" {
			dir := filepath.Join(runDir, name+"-data")
			d.dataDirs = append(d.dataDirs, dir)
			args = append(args, "-data", dir)
		}
		p, err := spawn(bin, filepath.Join(runDir, name+".log"), append([]string{"-role", role, "-addr", addr}, args...)...)
		if err != nil {
			return "", err
		}
		procs = append(procs, p)
		d.servers = append(d.servers, server{role, p.cmd.Process.Pid})
		ready := "/status"
		if role == "node" {
			ready = "/internal/v1/health"
		}
		return "http://" + addr, p.waitReady(d.client, "http://"+addr+ready)
	}
	edgeArgs := []string{"-materials", strconv.Itoa(baseMaterials), "-cache-size", strconv.Itoa(cacheSize),
		"-ordered-index", "materials:band_gap;materials:e_per_atom"}
	var err error
	if w.routed {
		peers := make([]string, 4)
		for i := range peers {
			if peers[i], err = start("node", fmt.Sprintf("node%d", i)); err != nil {
				d.stop()
				return nil, err
			}
		}
		edgeArgs = append(edgeArgs, "-shards", "2", "-health-interval", "0", "-peers", strings.Join(peers, ","))
		d.edge, err = start("router", "router", edgeArgs...)
	} else {
		d.edge, err = start("standalone", "standalone", edgeArgs...)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// apiKeys is how many users a deployment signs up. Requests rotate
// through them: the engine's limiter allows 10,000 operations per minute
// per user and answers 429 beyond that.
const apiKeys = 64

// signup registers the deployment's API keys.
func (d *deployment) signup() error {
	for i := 0; i < apiKeys; i++ {
		url := fmt.Sprintf("%s/auth/signup?provider=google&email=bench%d@example.com", d.edge, i)
		var env envelope
		if err := d.postJSON(url, nil, &env); err != nil {
			return err
		}
		if len(env.Response) != 1 {
			return fmt.Errorf("signup: %d rows in reply", len(env.Response))
		}
		key, _ := env.Response[0]["api_key"].(string)
		d.keys = append(d.keys, key)
	}
	return nil
}

// send issues one API request under the next key and returns the status
// and the whole body.
func (d *deployment) send(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if len(d.keys) > 0 {
		req.Header.Set("X-API-KEY", d.keys[d.nextKey.Add(1)%uint64(len(d.keys))])
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// postJSON posts body and decodes the reply, which must be a valid
// envelope, into env.
func (d *deployment) postJSON(url string, body []byte, env *envelope) error {
	status, raw, err := d.send(http.MethodPost, url, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %.200s", url, status, raw)
	}
	if err := json.Unmarshal(raw, env); err != nil {
		return fmt.Errorf("POST %s: %w", url, err)
	}
	if !env.Valid {
		return fmt.Errorf("POST %s: valid_response false: %s", url, env.Error)
	}
	return nil
}

// baseMaterials reads back the documents the deployment built for itself
// before the load, as oracle records.
func (d *deployment) baseMaterials() ([]material, error) {
	var env envelope
	err := d.postJSON(d.edge+"/rest/v1/query", mustJSON(map[string]any{
		"criteria":   map[string]any{},
		"properties": []string{"elements", "nelements", "nelectrons", "band_gap", "e_per_atom", "final_energy"},
	}), &env)
	if err != nil {
		return nil, fmt.Errorf("read base materials: %w", err)
	}
	num := func(r map[string]any, k string) float64 {
		if v, ok := r[k].(float64); ok {
			return v
		}
		return math.NaN()
	}
	base := make([]material, len(env.Response))
	for i, r := range env.Response {
		m := material{nelectrons: num(r, "nelectrons"), bandGap: num(r, "band_gap"),
			ePerAtom: num(r, "e_per_atom"), finalEnergy: num(r, "final_energy")}
		m.id, _ = r["_id"].(string)
		if n, ok := r["nelements"].(float64); ok {
			m.nelements = int(n)
		}
		els, _ := r["elements"].([]any)
		for _, e := range els {
			if s, ok := e.(string); ok {
				m.elements = append(m.elements, s)
			}
		}
		base[i] = m
	}
	return base, nil
}

// countMaterials asks the deployment for the exact size of the materials
// collection: one row per document, projected down to a single field.
func (d *deployment) countMaterials() (int, error) {
	var env envelope
	err := d.postJSON(d.edge+"/rest/v1/query", mustJSON(map[string]any{
		"criteria": map[string]any{}, "properties": []string{"nelements"},
	}), &env)
	if err != nil {
		return 0, fmt.Errorf("count materials: %w", err)
	}
	return env.N, nil
}

// load signs up the users, reads the base documents, sends the corpus
// through POST /rest/v1/insertMany and verifies the resulting count. It
// returns the oracle for the loaded deployment.
func (d *deployment) load(batches [][]byte, c corpus) (*oracle, error) {
	if err := d.signup(); err != nil {
		return nil, err
	}
	base, err := d.baseMaterials()
	if err != nil {
		return nil, err
	}
	for i, b := range batches {
		var env envelope
		if err := d.postJSON(d.edge+"/rest/v1/insertMany", b, &env); err != nil {
			return nil, fmt.Errorf("load batch %d: %w", i, err)
		}
	}
	n, err := d.countMaterials()
	if err != nil {
		return nil, err
	}
	if want := len(base) + len(c.mats); n != want {
		return nil, fmt.Errorf("after load the deployment holds %d materials, expected %d", n, want)
	}
	return newOracle(base, c), nil
}

// loadBatches pre-encodes the corpus as insertMany bodies, so that set-up
// time is the deployment's and not the generator's.
func loadBatches(c corpus) [][]byte {
	var batches [][]byte
	for i := 0; i < len(c.docs); i += loadBatch {
		batches = append(batches, mustJSON(map[string]any{"docs": c.docs[i:min(i+loadBatch, len(c.docs))]}))
	}
	return batches
}

// dirBytes is the total size of the regular files under the servers'
// data directories.
func (d *deployment) dirBytes() int64 {
	var total int64
	for _, dir := range d.dataDirs {
		filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && e.Type().IsRegular() {
				if info, err := e.Info(); err == nil {
					total += info.Size()
				}
			}
			return nil
		})
	}
	return total
}
