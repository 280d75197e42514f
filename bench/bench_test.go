package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeConfig runs the benchmark's whole path in this process, without
// spawning servers: a 500-document corpus, a 200 ms window, and the
// in-process composition standing in for the real binaries.
func smokeConfig() config {
	return config{
		corpusDocs: 500,
		warmup:     50 * time.Millisecond,
		window:     200 * time.Millisecond,
		setupReps:  1,
		trace:      true,
		traceOps:   40,
		start: func(w workload, runDir string) (*deployment, error) {
			c, err := compose(w, runDir, nil)
			if err != nil {
				return nil, err
			}
			return c.deployment, nil
		},
	}
}

// TestSmoke asserts that every workload passes the oracle and emits every
// metric BENCHMARK.json names, each with a finite value.
func TestSmoke(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no metrics")
	}
	cfg := smokeConfig()
	for _, w := range workloads {
		res, err := cfg.runWorkload(w, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, res.Attempted, res.Failed, res.Errors)
		}
		for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
			if v, ok := res.Values[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v (emitted: %v)", w.name, m.Name, v, ok)
			}
		}
		if len(res.Values) != len(sp.EndToEnd)+len(sp.PerLayer) {
			t.Errorf("%s: emits %d metrics, BENCHMARK.json names %d: %v", w.name, len(res.Values), len(sp.EndToEnd)+len(sp.PerLayer), res.Values)
		}
	}
}

// TestOracleRejectsWrongCount corrupts one expected count and checks that
// the reply is rejected and the run reported incorrect, which is what
// makes the command exit non-zero.
func TestOracleRejectsWrongCount(t *testing.T) {
	w := workloads[0]
	comp, err := compose(w, filepath.Join(t.TempDir(), "run"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer comp.stop()
	c := genCorpus(7, 200)
	o, err := comp.load(loadBatches(c), c)
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(7, "x", o, w)
	ops := make([]op, 20)
	for i := range ops {
		ops[i] = st.next()
	}
	if failures := comp.replay(ops, map[string][]float64{}); len(failures) != 0 {
		t.Fatalf("uncorrupted ops rejected: %v", failures)
	}
	ops[3].want++
	failures := comp.replay(ops, map[string][]float64{})
	if len(failures) != 1 || !strings.Contains(failures[0].Error(), "oracle expects") {
		t.Fatalf("corrupted expectation: failures = %v", failures)
	}
	res := &result{Values: map[string]float64{}}
	res.tally([]sample{{}, {err: failures[0]}})
	if res.Failed != 1 || res.Values["loadgen.error_ratio"] != 0.5 {
		t.Fatalf("tally: failed %d, error ratio %v", res.Failed, res.Values["loadgen.error_ratio"])
	}
}

// TestSelfTimes checks the attribution on a scatter: two parallel
// roundtrips share the time their union covers, and every layer's self
// time adds up to the request's wall time.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spanEdge, ID: 0, Parent: -1, StartMs: 0, EndMs: 10},
		{Name: spanRouter, ID: 1, Parent: 0, StartMs: 1, EndMs: 9},
		{Name: spanRoundtrip, ID: 2, Parent: 1, StartMs: 2, EndMs: 6},
		{Name: spanRoundtrip, ID: 3, Parent: 1, StartMs: 4, EndMs: 8},
		{Name: spanNode, ID: 4, Parent: 2, StartMs: 3, EndMs: 5},
	}
	self := selfTimes(spans)
	want := map[string]float64{spanEdge: 2, spanRouter: 2, spanRoundtrip: 4.5, spanNode: 1.5}
	total := 0.0
	for name, ms := range want {
		if math.Abs(self[name]-ms) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], ms)
		}
		total += self[name]
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("self times add up to %v, want the root's 10", total)
	}
}
