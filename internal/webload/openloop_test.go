package webload

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

func TestVocabGenerator(t *testing.T) {
	if _, err := NewVocabGenerator(1, nil, []string{"Fe"}); err == nil {
		t.Fatal("expected error for empty formulas")
	}
	g, err := NewVocabGenerator(7, []string{"Fe2O3", "LiFePO4"}, []string{"Fe", "O", "Li"})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[QueryKind]int{}
	for i := 0; i < 500; i++ {
		kinds[g.Next().Kind]++
	}
	for _, k := range []QueryKind{KindFormula, KindElements, KindRange, KindBrowse, KindCount} {
		if kinds[k] == 0 {
			t.Errorf("kind %s never generated", k)
		}
	}
	// Determinism: same seed, same stream.
	g2, _ := NewVocabGenerator(7, []string{"Fe2O3", "LiFePO4"}, []string{"Fe", "O", "Li"})
	for i := 0; i < 50; i++ {
		a, b := g2.Next(), g2.Next()
		_ = a
		_ = b
	}
	ga, _ := NewVocabGenerator(11, []string{"A"}, []string{"B"})
	gb, _ := NewVocabGenerator(11, []string{"A"}, []string{"B"})
	for i := 0; i < 100; i++ {
		qa, qb := ga.Next(), gb.Next()
		if qa.Kind != qb.Kind || qa.User != qb.User {
			t.Fatalf("streams diverged at %d: %v vs %v", i, qa.Kind, qb.Kind)
		}
	}
}

func TestRunOpenLoopDispatchesAll(t *testing.T) {
	g, err := NewVocabGenerator(3, []string{"Fe2O3"}, []string{"Fe", "O"})
	if err != nil {
		t.Fatal(err)
	}
	var calls, fails atomic.Int64
	res, err := g.RunOpenLoop(func(q Query) (int, error) {
		n := calls.Add(1)
		if n%5 == 0 {
			fails.Add(1)
			return 0, fmt.Errorf("synthetic failure")
		}
		return 2, nil
	}, OpenLoopConfig{Rate: 2000, Duration: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	want := int(2000 * 0.040)
	if res.Sent != want {
		t.Fatalf("sent %d, want %d", res.Sent, want)
	}
	if int64(res.Sent) != calls.Load() {
		t.Fatalf("exec called %d times for %d sends", calls.Load(), res.Sent)
	}
	if len(res.Samples) != res.Sent {
		t.Fatalf("%d samples for %d sends", len(res.Samples), res.Sent)
	}
	if int64(res.Errors) != fails.Load() {
		t.Fatalf("errors %d, want %d", res.Errors, fails.Load())
	}
	if res.Records != (res.Sent-res.Errors)*2 {
		t.Fatalf("records %d, want %d", res.Records, (res.Sent-res.Errors)*2)
	}
	if _, err := g.RunOpenLoop(func(Query) (int, error) { return 0, nil }, OpenLoopConfig{Rate: 0}); err == nil {
		t.Fatal("expected error for zero rate")
	}
}

func TestLatencyQuantileExact(t *testing.T) {
	if got := LatencyQuantile(nil, 0.99); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	var samples []Sample
	for i := 100; i >= 1; i-- { // reverse order: quantile must sort
		samples = append(samples, Sample{Latency: time.Duration(i) * time.Millisecond})
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{0.999, 100 * time.Millisecond},
		{1.0, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := LatencyQuantile(samples, c.q); got != c.want {
			t.Errorf("q=%g: got %v, want %v", c.q, got, c.want)
		}
	}
}

func TestProbeAckMonotonic(t *testing.T) {
	var p Probe
	p.Ack(5)
	p.Ack(3) // out-of-order ack must not regress
	if got := p.Acked(); got != 5 {
		t.Fatalf("acked %d, want 5", got)
	}
	p.Ack(9)
	if got := p.Acked(); got != 9 {
		t.Fatalf("acked %d, want 9", got)
	}
}

func TestProbeViolationBound(t *testing.T) {
	// 2 groups, maxStale 3: slack is 6.
	if ProbeViolation(94, 100, 2, 3) {
		t.Fatal("observed == acked-slack is legal lag, not a violation")
	}
	if !ProbeViolation(93, 100, 2, 3) {
		t.Fatal("observed < acked-slack must be a violation")
	}
	// No probe visible at all early in a run is fine while acked is small.
	if ProbeViolation(-1, 0, 2, 3) {
		t.Fatal("empty read with nothing acked should not violate")
	}
	if !ProbeViolation(-1, 10, 1, 2) {
		t.Fatal("empty read with 10 acked and slack 2 must violate")
	}
}

func TestProbeDocShape(t *testing.T) {
	d := ProbeDoc("r1", 42)
	if d["_id"] != "probe-r1-42" || d["probe"] != "r1" || d["probe_seq"] != int64(42) {
		t.Fatalf("bad probe doc: %v", d)
	}
	opts := ProbeOpts(4)
	if opts.MaxStaleness != 4 || opts.Limit != 1 || len(opts.Sort) != 1 || opts.Sort[0] != "-probe_seq" {
		t.Fatalf("bad probe opts: %+v", opts)
	}
}

// TestProbeRunsDoNotCollide replays two probe runs against one store:
// the second run's inserts must not collide with the first's ids, and
// its probe read must see only its own (lower) sequences.
func TestProbeRunsDoNotCollide(t *testing.T) {
	mats := datastore.MustOpenMemory().C("materials")
	for seq := int64(1); seq <= 5; seq++ {
		if _, err := mats.Insert(document.D(ProbeDoc("first", seq))); err != nil {
			t.Fatal(err)
		}
	}
	for seq := int64(1); seq <= 3; seq++ {
		if _, err := mats.Insert(document.D(ProbeDoc("second", seq))); err != nil {
			t.Fatalf("second run's probe %d: %v", seq, err)
		}
	}
	for run, want := range map[string]int64{"first": 5, "second": 3} {
		docs, err := mats.FindAll(ProbeFilter(run), ProbeOpts(4))
		if err != nil {
			t.Fatal(err)
		}
		if got := ObservedSeq(docs); got != want {
			t.Errorf("run %s observed seq %d, want %d", run, got, want)
		}
	}
}
