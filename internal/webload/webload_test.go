package webload

import (
	"fmt"
	"testing"
	"time"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/queryengine"
)

func corpus(tb testing.TB, n int) (*datastore.Store, *datastore.Collection) {
	tb.Helper()
	store := datastore.MustOpenMemory()
	mats := store.C("materials")
	elements := [][]any{
		{"Li", "Fe", "O"}, {"Na", "Cl"}, {"Fe", "O"}, {"Li", "Co", "O"}, {"Mg", "O"},
	}
	for i := 0; i < n; i++ {
		_, err := mats.Insert(document.D{
			"_id":            fmt.Sprintf("mat-%05d", i),
			"pretty_formula": fmt.Sprintf("F%d", i%50),
			"elements":       elements[i%len(elements)],
			"band_gap":       float64(i%50) / 10,
			"e_per_atom":     -1 - float64(i%30)/10,
			"nelectrons":     float64(20 + i%300),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	mats.EnsureOrderedIndex("pretty_formula")
	mats.EnsureOrderedIndex("elements")
	return store, mats
}

func TestGeneratorDeterministic(t *testing.T) {
	_, mats := corpus(t, 200)
	g1, err := NewGenerator(42, mats)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(42, mats)
	for i := 0; i < 50; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Kind != b.Kind || a.User != b.User {
			t.Fatalf("divergence at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorMixCoversAllKinds(t *testing.T) {
	_, mats := corpus(t, 200)
	g, _ := NewGenerator(7, mats)
	seen := map[QueryKind]int{}
	for i := 0; i < 500; i++ {
		seen[g.Next().Kind]++
	}
	for _, k := range []QueryKind{KindFormula, KindElements, KindRange, KindBrowse, KindCount} {
		if seen[k] == 0 {
			t.Errorf("kind %s never generated", k)
		}
	}
	// Formula lookups dominate per the configured mix.
	if seen[KindFormula] < seen[KindCount] {
		t.Errorf("mix skewed: %v", seen)
	}
}

func TestGeneratorEmptyCorpus(t *testing.T) {
	store := datastore.MustOpenMemory()
	if _, err := NewGenerator(1, store.C("materials")); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestReplayRecordsSamplesAndRecords(t *testing.T) {
	store, mats := corpus(t, 300)
	g, _ := NewGenerator(3, mats)
	eng := queryengine.New(store)
	samples, records, err := Replay(g, eng, "materials", 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 200 {
		t.Fatalf("samples = %d", len(samples))
	}
	var totalReturned int
	for i, s := range samples {
		if s.Latency < 0 {
			t.Errorf("negative latency at %d", i)
		}
		if s.Seq != i {
			t.Errorf("seq %d != %d", s.Seq, i)
		}
		totalReturned += s.Returned
	}
	if totalReturned != records {
		t.Errorf("records = %d, sum = %d", records, totalReturned)
	}
	if records == 0 {
		t.Error("workload returned nothing; corpus sampling broken")
	}
}

func TestReplayThroughRateLimiterPropagatesError(t *testing.T) {
	store, mats := corpus(t, 100)
	g, _ := NewGenerator(3, mats)
	eng := queryengine.New(store, queryengine.WithRateLimit(1, time.Hour))
	// 40 users × 1 query budget: a long replay must eventually trip.
	_, _, err := Replay(g, eng, "materials", 500)
	if err == nil {
		t.Error("rate limiter never tripped")
	}
}
