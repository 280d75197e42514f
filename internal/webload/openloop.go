// Open-loop replay and the bounded-staleness probe.
//
// Replay (webload.go) is closed-loop: each query waits for the last, so
// a slow server throttles its own load and the measured latencies are
// flattering. The open-loop runner here dispatches at a fixed arrival
// rate regardless of completions — the honest way to measure tail
// latency under failure (queries queue up behind a stall instead of
// politely waiting it out), which is what the mpbench webload SLO gate
// needs.
package webload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/vclock"
)

// NewVocabGenerator builds a generator from explicit vocabulary instead
// of sampling a live collection — for drivers (HTTP load tools) that
// have no direct store handle.
func NewVocabGenerator(seed int64, formulas, elements []string) (*Generator, error) {
	if len(formulas) == 0 || len(elements) == 0 {
		return nil, fmt.Errorf("webload: empty vocabulary")
	}
	g := &Generator{
		rng:      rand.New(rand.NewSource(seed)),
		formulas: append([]string(nil), formulas...),
		elements: append([]string(nil), elements...),
	}
	for i := 0; i < 40; i++ {
		g.users = append(g.users, fmt.Sprintf("user%02d", i))
	}
	return g, nil
}

// Exec runs one query against whatever backend the driver targets (the
// in-process engine, or an HTTP client) and returns the row count.
type Exec func(q Query) (returned int, err error)

// OpenLoopConfig parameterizes RunOpenLoop.
type OpenLoopConfig struct {
	// Rate is the arrival rate in queries/second (> 0).
	Rate float64
	// Duration bounds the dispatch window; the total query count is
	// Rate * Duration (the runner then drains in-flight queries).
	Duration time.Duration
}

// OpenLoopResult summarizes a run.
type OpenLoopResult struct {
	// Sent counts dispatched queries; Errors the failed ones. Failed
	// queries still contribute a latency sample — an error that took
	// two seconds to surface is two seconds the user waited.
	Sent    int
	Errors  int
	Records int
	Samples []Sample
}

// RunOpenLoop dispatches queries at a fixed rate, one goroutine per
// arrival, and waits for all of them. It never aborts early: per-query
// errors are counted, not fatal, because a failover test is precisely
// about what happens while some requests fail.
func (g *Generator) RunOpenLoop(exec Exec, cfg OpenLoopConfig) (*OpenLoopResult, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("webload: open-loop rate must be positive, got %g", cfg.Rate)
	}
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	total := int(cfg.Rate * cfg.Duration.Seconds())
	if total <= 0 {
		total = 1
	}
	res := &OpenLoopResult{Samples: make([]Sample, 0, total)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var errs, records atomic.Int64

	ticker := vclock.Wall.NewTicker(interval)
	defer ticker.Stop()
	for i := 0; i < total; i++ {
		if i > 0 {
			<-ticker.Chan()
		}
		q := g.Next()
		seq := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			returned, err := exec(q)
			lat := time.Since(start)
			if err != nil {
				errs.Add(1)
			} else {
				records.Add(int64(returned))
			}
			mu.Lock()
			res.Samples = append(res.Samples, Sample{Kind: q.Kind, Latency: lat, Returned: returned, Seq: seq})
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Sent = total
	res.Errors = int(errs.Load())
	res.Records = int(records.Load())
	return res, nil
}

// LatencyQuantile returns the exact nearest-rank q-quantile (0 < q <= 1)
// of the sample latencies — no bucketing error, unlike the histogram.
func LatencyQuantile(samples []Sample, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	lats := make([]time.Duration, len(samples))
	for i, s := range samples {
		lats[i] = s.Latency
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(q*float64(len(lats))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return lats[idx]
}

// Probe tracks the highest write-acknowledged probe sequence for the
// bounded-staleness check. A writer goroutine inserts ProbeDoc(n) docs
// and calls Ack(n) only after the cluster acknowledges the insert; a
// reader snapshots Acked() *before* issuing a probe read, so every
// sequence at or below the snapshot was durably acked when the read
// began.
type Probe struct {
	acked atomic.Int64
}

// Ack records that probe seq was acknowledged (monotonic max).
func (p *Probe) Ack(seq int64) {
	for {
		cur := p.acked.Load()
		if seq <= cur || p.acked.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Acked returns the highest acknowledged probe sequence.
func (p *Probe) Acked() int64 { return p.acked.Load() }

// ProbeDoc builds run's probe document for sequence seq. The run tag is
// in the _id, so a second run against the same deployment writes fresh
// probes instead of failing every insert as a duplicate (and so never
// acking one), and in the probe field, so ProbeFilter sees only this
// run's probes: an earlier run's higher sequences would mask a stale
// read. Probe docs are the only writes the staleness check assumes
// during a run.
func ProbeDoc(run string, seq int64) map[string]any {
	return map[string]any{
		"_id":       fmt.Sprintf("probe-%s-%d", run, seq),
		"probe":     run,
		"probe_seq": seq,
	}
}

// ProbeFilter matches run's probe docs.
func ProbeFilter(run string) document.D { return document.D{"probe": run} }

// ProbeOpts asks for the single freshest probe, routed with the given
// staleness budget.
func ProbeOpts(maxStale int) *datastore.FindOpts {
	return &datastore.FindOpts{Sort: []string{"-probe_seq"}, Limit: 1, MaxStaleness: maxStale}
}

// ObservedSeq extracts the probe sequence from a probe-read result (-1
// when no probe doc was visible yet).
func ObservedSeq(docs []document.D) int64 {
	if len(docs) == 0 {
		return -1
	}
	v, ok := docs[0].GetFloat("probe_seq")
	if !ok {
		return -1
	}
	return int64(v)
}

// ProbeViolation decides whether a probe read proves the staleness
// bound was broken. acked must be snapshotted before the read was
// issued; groups is the cluster's shard-group count.
//
// Why the groups factor: generations are per shard group while probe
// sequences are global. If observed < acked - groups*maxStale then more
// than groups*maxStale acked probes are invisible, so by pigeonhole
// some single group is missing more than maxStale acked writes — and a
// replica missing K+1 acked entries trails its group's acked head by
// more than K generations. Anything at or above the threshold is
// explainable by legal per-group lag and is not a violation.
func ProbeViolation(observed, acked int64, groups, maxStale int) bool {
	if groups < 1 {
		groups = 1
	}
	return observed < acked-int64(groups)*int64(maxStale)
}
