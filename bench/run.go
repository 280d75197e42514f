package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"matproj/internal/cluster/wire"
	"matproj/internal/obs"
	"matproj/internal/stats"
)

// Sizes and rates. They are constants, not flags: a number from this
// benchmark is comparable only with numbers taken at the same sizes.
const (
	// corpusDocs seeded documents are loaded on top of what mpserve
	// -materials baseMaterials builds for itself. Their ids outnumber the
	// cacheSize entries of the result cache about six to one, so hot keys
	// fit in it and the tail does not.
	corpusDocs    = 6000
	loadBatch     = 500
	baseMaterials = 50
	cacheSize     = 1024

	// Open-loop arrival rates in requests per second. The routed servers
	// keep 0.3 and 0.2 of a 2-core machine's cores busy at these; at higher
	// rates requests queue behind the heavy scans and aggregates, and the
	// latency metrics vary half again as much from run to run.
	portalRate = 40.0
	mixedRate  = 15.0
)

// config is what a run of the benchmark fixes besides the workload and
// the seed. Only the smoke test departs from defaultConfig.
type config struct {
	corpusDocs int
	warmup     time.Duration // excluded from every metric
	window     time.Duration
	setupReps  int  // set-ups per run; setup_s is their median
	trace      bool // add the traced replay and its per-layer metrics
	traceOps   int  // operations the traced replay issues
	// start launches a fresh, empty deployment of w under runDir.
	start func(w workload, runDir string) (*deployment, error)
}

// defaultConfig measures real mpserve processes built from this checkout.
func defaultConfig() (config, error) {
	bin, err := buildServer()
	if err != nil {
		return config{}, err
	}
	return config{
		corpusDocs: corpusDocs,
		warmup:     3 * time.Second,
		setupReps:  3,
		traceOps:   600,
		start:      func(w workload, runDir string) (*deployment, error) { return startProcesses(bin, w, runDir) },
	}, nil
}

// result is one workload's outcome: every metric by name, and what the
// oracle found.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"` // the first few
	Values    map[string]float64 `json:"values"`
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// runWorkload measures one workload on fresh deployments. The untraced
// run gives every end-to-end metric and the per-layer metrics visible
// from outside the server processes; with cfg.trace, a replay through
// the in-process composition adds the rest. Set-up time runs from the
// first process spawned to the loaded count verified.
func (cfg config) runWorkload(w workload, seed int64) (*result, error) {
	runDir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	c := genCorpus(seed, cfg.corpusDocs)
	batches := loadBatches(c)

	var (
		d      *deployment
		o      *oracle
		setups []float64
	)
	for i := 0; i < cfg.setupReps; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = cfg.start(w, runDir); err != nil {
			return nil, err
		}
		if o, err = d.load(batches, c); err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.stop()

	r, err := measure(d, w, o, seed, cfg.warmup, cfg.window)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: seed, Values: r.metrics()}
	res.Values["setup_s"] = stats.Summarize(setups).P50
	res.tally(r.samples)
	if err := d.verifyWrites(o, r.acked); err != nil {
		res.fail(err)
	}
	if cfg.trace {
		values, failures, err := cfg.traceRun(w, c, batches, seed, runDir+"-trace")
		if err != nil {
			return nil, err
		}
		for k, v := range values {
			res.Values[k] = v
		}
		for _, f := range failures {
			res.fail(f)
		}
	}
	return res, nil
}

// tally counts the window's operations and failures into the result.
func (res *result) tally(samples []sample) {
	res.Attempted = len(samples)
	for _, s := range samples {
		if s.err != nil {
			res.fail(s.err)
		}
	}
	res.Values["loadgen.error_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
}

// ratio is a/b, and 0 when b is 0: a layer that did no work on a workload
// reports 0 for its per-work metrics.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics turns the untraced run into the end-to-end metrics and the
// per-layer metrics observable from outside the server processes.
func (r *run) metrics() map[string]float64 {
	v := map[string]float64{}
	ops := float64(len(r.samples))
	var lat, lag []float64
	byClass := map[string][]float64{}
	good, sent := 0.0, 0.0
	for _, s := range r.samples {
		lat = append(lat, ms(s.latency))
		lag = append(lag, ms(s.lag))
		byClass[s.class] = append(byClass[s.class], ms(s.latency))
		if s.err == nil {
			good++
			sent += float64(s.sent)
		}
	}
	all := stats.Summarize(lat)
	v["latency_p50_ms"] = all.P50
	v["latency_mean_ms"] = all.Mean
	v["goodput_ops_s"] = good / (r.end.at - r.begin.at).Seconds()
	v["loadgen.latency_p90_ms"] = all.P90
	v["loadgen.latency_p99_ms"] = all.P99
	v["loadgen.lag_p99_ms"] = stats.Summarize(lag).P99
	v["loadgen.samples"] = ops
	for class := range classes {
		v["restapi."+class+"_p50_ms"] = stats.Summarize(byClass[class]).P50
	}

	cpuMs := func(role string) float64 { return float64(r.end.cpuTicks[role]-r.begin.cpuTicks[role]) * tickMs }
	edgeCPU, edgeRSS := cpuMs("router")+cpuMs("standalone"), r.rssMB["router"]+r.rssMB["standalone"]
	v["cpu_ms_per_op"] = ratio(edgeCPU+cpuMs("node"), ops)
	v["rss_peak_mb"] = edgeRSS + r.rssMB["node"]
	v["proc.router_cpu_ms_per_op"] = ratio(cpuMs("router"), ops)
	v["proc.nodes_cpu_ms_per_op"] = ratio(cpuMs("node"), ops)
	v["proc.router_rss_mb"] = r.rssMB["router"]
	v["proc.nodes_rss_mb"] = r.rssMB["node"]

	delta := func(name string) float64 {
		return float64(r.end.metrics.Counters[name]) - float64(r.begin.metrics.Counters[name])
	}
	hits, misses := delta("rcache.hits"), delta("rcache.misses")
	v["rcache.hit_ratio"] = ratio(hits, hits+misses)
	v["rcache.evictions_per_op"] = ratio(delta("rcache.evictions"), ops)
	v["rcache.invalidations_per_op"] = ratio(delta("rcache.invalidations"), ops)
	scatters, fanout := delta("cluster_scatter_total"), delta("cluster_scatter_fanout_total")
	v["cluster.fanout_per_op"] = ratio(fanout, ops)
	// With two shard groups a dispatch reaches one group or both; this is
	// the share that reached both.
	v["cluster.scatter_ratio"] = ratio(fanout-scatters, scatters)
	v["journal.bytes_per_user_byte"] = ratio(float64(r.end.dirBytes-r.begin.dirBytes), sent)
	return v
}

// replay issues ops one at a time. It files each latency under its class
// in byClass and returns every reply the oracle rejected.
func (d *deployment) replay(ops []op, byClass map[string][]float64) []error {
	var failures []error
	start := time.Now()
	for i := range ops {
		s := d.do(&ops[i], start, time.Since(start))
		byClass[s.class] = append(byClass[s.class], ms(s.latency))
		if s.err != nil {
			failures = append(failures, s.err)
		}
	}
	return failures
}

// accumulate adds to into what the counters and latency histograms of a
// registry gained between two snapshots.
func accumulate(into *obs.Snapshot, end, begin obs.Snapshot) {
	for name, v := range end.Counters {
		into.Counters[name] += v - begin.Counters[name]
	}
	for name, h := range end.Histograms {
		acc := into.Histograms[name]
		acc.Count += h.Count - begin.Histograms[name].Count
		acc.Sum += h.Sum - begin.Histograms[name].Sum
		into.Histograms[name] = acc
	}
}

// traceBlock is how many consecutive operations the traced replay issues
// with the tracer on or off: one full turn of the class round-robin.
const traceBlock = 100

// traceRun replays the start of w's stream, one operation at a time,
// through the in-process composition: one block of traceBlock operations
// to warm up, then cfg.traceOps operations in blocks with the tracer on,
// off, off, on, ... so that caches warming and collections growing weigh
// on both sides alike. The traced blocks give the per-layer metrics only
// a view inside the process can give, and their spans go to
// out/trace_<workload>.json; the plain blocks between them, on the same
// composition, give the tracing overhead.
func (cfg config) traceRun(w workload, c corpus, batches [][]byte, seed int64, runDir string) (map[string]float64, []error, error) {
	tr := newTracer()
	comp, err := compose(w, runDir, tr)
	if err != nil {
		return nil, nil, err
	}
	defer comp.stop()
	o, err := comp.load(batches, c)
	if err != nil {
		return nil, nil, err
	}
	st := newStream(seed, "t", o, w)
	newGain := func() obs.Snapshot {
		return obs.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	}
	var (
		failures []error
		ops      float64 // traced operations
		// latencies per class in the traced and in the plain blocks
		traced, plain = map[string][]float64{}, map[string][]float64{}
		// what the edge's and the stores' registries gained in traced blocks
		edge, store = newGain(), newGain()
	)
	size := max(1, min(traceBlock, cfg.traceOps/2)) // at least one block each way
	for done := -size; done < cfg.traceOps; done += size {
		block := make([]op, min(size, cfg.traceOps-done))
		for i := range block {
			block[i] = st.next()
		}
		switch n := done / size % 4; {
		case done < 0:
			failures = append(failures, comp.replay(block, map[string][]float64{})...)
		case n == 0 || n == 3:
			tr.on.Store(true)
			edge0, store0 := comp.edgeReg.Snapshot(), comp.storeReg.Snapshot()
			failures = append(failures, comp.replay(block, traced)...)
			tr.on.Store(false)
			accumulate(&edge, comp.edgeReg.Snapshot(), edge0)
			accumulate(&store, comp.storeReg.Snapshot(), store0)
			ops += float64(len(block))
		default:
			failures = append(failures, comp.replay(block, plain)...)
		}
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := writeJSONFile(filepath.Join(outDir, "trace_"+w.name+".json"), tr.spans); err != nil {
		return nil, nil, err
	}
	v := tr.layerMetrics(edge, store, ops)
	// Each class's median latency with the tracer on over its median with
	// it off, averaged over the operations. Medians and ratios per class,
	// because a handful of 100 ms aggregates, or one cache miss, would
	// otherwise outweigh the overhead on 300 operations.
	sum := 0.0
	for class, lat := range traced {
		sum += float64(len(lat)) * ratio(stats.Summarize(lat).P50, stats.Summarize(plain[class]).P50)
	}
	v["trace.overhead_ratio"] = sum / ops
	return v, failures, nil
}

// layerMetrics turns the spans of ops traced operations, and what the
// edge's and the stores' registries gained while they ran, into per-layer
// metrics. The caller holds tr.mu.
func (tr *tracer) layerMetrics(edge, store obs.Snapshot, ops float64) map[string]float64 {
	v := map[string]float64{}
	self := selfTimes(tr.spans)
	roots, roundtrips, selfSum := 0.0, 0.0, 0.0
	for _, s := range tr.spans {
		switch s.Name {
		case spanEdge:
			roots += s.EndMs - s.StartMs
		case spanRoundtrip:
			roundtrips++
		}
	}
	for _, ms := range self {
		selfSum += ms
	}
	// The engine sits between the REST handler and the backend decorator
	// with no seam of its own: its time is what its own query.*_ms
	// histograms hold beyond the backend spans beneath them.
	engine := 0.0
	for name, h := range edge.Histograms {
		if strings.HasPrefix(name, "query.") {
			engine += h.Sum
		}
	}
	engineSelf := engine - (roots - self[spanEdge])
	v["restapi.self_ms"] = (self[spanEdge] - engineSelf) / ops
	v["queryengine.self_ms"] = engineSelf / ops
	v["cluster.router_self_ms"] = self[spanRouter] / ops
	v["wire.roundtrip_self_ms"] = self[spanRoundtrip] / ops
	v["cluster.node_self_ms"] = self[spanNode] / ops
	v["datastore.self_ms"] = self[spanStore] / ops
	v["cluster.roundtrips_per_op"] = roundtrips / ops
	v["restapi.resp_bytes_per_op"] = float64(tr.respBytes) / ops
	v["wire.bytes_per_op"] = float64(tr.wireBytes) / ops
	v["wire.decode_ms_per_mb"] = decodeProbe(tr.replies)
	v["trace.coverage_ratio"] = ratio(selfSum, roots)

	count := func(name string) float64 { return float64(store.Counters[name]) }
	finds, inserts, fsyncs := store.Histograms["datastore.find_ms"], store.Histograms["datastore.insertMany_ms"], store.Histograms["datastore.journal.fsync_ms"]
	v["datastore.find_ms"] = finds.Mean()
	v["datastore.insertmany_ms"] = inserts.Mean()
	v["datastore.examined_per_returned"] = ratio(count("datastore.planner.estimated_candidates"), count("datastore.docs_returned"))
	v["datastore.full_scans_per_op"] = count("datastore.planner.full_scans") / ops
	v["datastore.index_scans_per_op"] = count("datastore.planner.index_scans") / ops
	v["journal.fsyncs_per_op"] = float64(fsyncs.Count) / ops
	v["journal.records_per_fsync"] = ratio(count("datastore.journal.appends"), float64(fsyncs.Count))
	v["journal.fsync_mean_ms"] = fsyncs.Mean()
	return v
}

// decodeProbe times the router's reply decoding (wire.DecodeJSONBytes and
// NormalizedDocs) directly on the node replies the traced run captured,
// in ms per MB of reply.
func decodeProbe(replies [][]byte) float64 {
	bytes := 0
	start := time.Now()
	for _, raw := range replies {
		var resp wire.DocsResponse
		if wire.DecodeJSONBytes(raw, &resp) == nil {
			resp.NormalizedDocs()
			bytes += len(raw)
		}
	}
	return ratio(ms(time.Since(start)), float64(bytes)/(1<<20))
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
