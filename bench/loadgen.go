package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"matproj/internal/obs"
)

// sample is one operation's outcome.
type sample struct {
	class   string
	due     time.Duration // since run start: when the op was due (open loop) or sent
	lag     time.Duration // how late the generator dispatched it
	latency time.Duration // reply received minus due
	err     error
	ids     []string // acknowledged document ids (writes)
	sent    int      // JSON bytes of documents sent
}

// do sends one op, checks its reply against the oracle and records it.
func (d *deployment) do(o *op, start time.Time, due time.Duration) sample {
	s := sample{class: o.class, due: due, lag: time.Since(start) - due}
	status, body, err := d.send(o.method, d.edge+o.path, o.body)
	s.latency = time.Since(start) - due
	if err == nil {
		err = o.check(status, body)
	}
	if s.err = err; err == nil {
		s.ids, s.sent = o.ids, o.userBytes
	}
	return s
}

// snapshot is the externally visible state of a deployment at an instant.
type snapshot struct {
	at       time.Duration
	cpuTicks map[string]int64 // utime+stime per role, summed over its processes
	metrics  obs.Snapshot     // the edge's GET /metrics
	dirBytes int64
}

func (d *deployment) snapshot(start time.Time) (snapshot, error) {
	s := snapshot{cpuTicks: map[string]int64{}, dirBytes: d.dirBytes()}
	for _, srv := range d.servers {
		ticks, err := cpuTicks(srv.pid)
		if err != nil {
			return s, err
		}
		s.cpuTicks[srv.role] += ticks
	}
	resp, err := d.client.Get(d.edge + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s.metrics); err != nil {
		return s, fmt.Errorf("GET /metrics: %w", err)
	}
	s.at = time.Since(start)
	return s, nil
}

// run is everything one untraced measurement observed.
type run struct {
	samples    []sample // ops due inside the window, warm-up excluded
	acked      []string // every document id a write acknowledged, warm-up included
	begin, end snapshot
	rssMB      map[string]float64 // peak resident set per role at window end
}

// measure drives w against d: a warm-up, then a window of the given
// length, and returns the window's samples with the deployment's state
// at both ends. In an open loop one goroutine per arrival sends at a
// fixed interval and latency counts from the instant the request was
// due; in a closed loop each client sends its next request when the
// previous one is answered.
func measure(d *deployment, w workload, o *oracle, seed int64, warm, window time.Duration) (*run, error) {
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
		r       = &run{}
		markErr error
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	var openOps []op
	if w.rate > 0 {
		st := newStream(seed, "o", o, w)
		openOps = make([]op, int(w.rate*(warm+window).Seconds()))
		for i := range openOps {
			openOps[i] = st.next()
		}
	}
	start := time.Now()
	wg.Add(1)
	go func() { // the begin snapshot, taken off the dispatch path
		defer wg.Done()
		time.Sleep(warm)
		r.begin, markErr = d.snapshot(start)
	}()
	if w.rate > 0 {
		interval := time.Duration(float64(time.Second) / w.rate)
		for i := range openOps {
			due := time.Duration(i) * interval
			time.Sleep(due - time.Since(start))
			wg.Add(1)
			go func(o *op) {
				defer wg.Done()
				record(d.do(o, start, due))
			}(&openOps[i])
		}
	} else {
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				st := newStream(seed+int64(c), strconv.Itoa(c), o, w)
				for time.Since(start) < warm+window {
					next := st.next()
					record(d.do(&next, start, time.Since(start)))
				}
			}(c)
		}
	}
	wg.Wait()
	if markErr != nil {
		return nil, markErr
	}
	var err error
	if r.end, err = d.snapshot(start); err != nil {
		return nil, err
	}
	r.rssMB = map[string]float64{}
	for _, srv := range d.servers {
		kb, err := peakRSSKB(srv.pid)
		if err != nil {
			return nil, err
		}
		r.rssMB[srv.role] += float64(kb) / 1024
	}
	for _, s := range samples {
		r.acked = append(r.acked, s.ids...)
		if s.due >= r.begin.at {
			r.samples = append(r.samples, s)
		}
	}
	return r, nil
}

// verifyWrites reads back what the run acknowledged: every written id (a
// sample of at least 1000 when there are more) must be stored, and the
// collection must hold exactly the loaded and the acknowledged documents,
// those of the warm-up included.
func (d *deployment) verifyWrites(o *oracle, acked []string) error {
	if len(acked) == 0 {
		return nil
	}
	n, err := d.countMaterials()
	if err != nil {
		return err
	}
	if want := len(o.mats) + len(acked); n != want {
		return fmt.Errorf("deployment holds %d materials, expected %d (%d loaded + %d acknowledged)", n, want, len(o.mats), len(acked))
	}
	step := max(1, len(acked)/1000)
	var ids []string
	for i := 0; i < len(acked); i += step {
		ids = append(ids, acked[i])
	}
	for i := 0; i < len(ids); i += 100 {
		batch := ids[i:min(i+100, len(ids))]
		var env envelope
		err := d.postJSON(d.edge+"/rest/v1/query", mustJSON(map[string]any{
			"criteria": map[string]any{"_id": map[string]any{"$in": batch}}, "properties": []string{"band_gap"},
		}), &env)
		if err != nil {
			return fmt.Errorf("read back acknowledged writes: %w", err)
		}
		if len(env.Response) != len(batch) {
			return fmt.Errorf("read back %d of %d acknowledged ids (%s...)", len(env.Response), len(batch), batch[0])
		}
	}
	return nil
}

// cpuTicks is a process's user plus system time in clock ticks (1/100 s),
// fields 14 and 15 of /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, may hold spaces; fields resume after ')'.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times %q %q", pid, f[11], f[12])
	}
	return utime + stime, nil
}

// tickMs is the length of a /proc clock tick: USER_HZ is 100 on Linux.
const tickMs = 10.0

// peakRSSKB is VmHWM from /proc/<pid>/status.
func peakRSSKB(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
