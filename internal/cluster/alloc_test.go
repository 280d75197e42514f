//go:build !race

package cluster_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
	"matproj/internal/queryengine"
	"matproj/internal/rcache"
)

// routedRangeReadAllocs is what one routed range read allocated, node
// side included, when its bound was last set: the node encodes the
// stored documents and the router parses the replies, and nothing on the
// path copies a document.
const routedRangeReadAllocs = 20416

// benchShapedDocs returns n documents shaped like the bench corpus:
// band_gap runs over [0, 5) with 120 documents per unit, and each
// document carries an 8-site structure.
func benchShapedDocs(n int) []document.D {
	rng := rand.New(rand.NewSource(1))
	symbols := []string{"Li", "Fe", "O", "P", "Mn", "Co", "Ni", "S", "Si", "Ti"}
	docs := make([]document.D, n)
	for i := range docs {
		sites := make([]any, 8)
		for j := range sites {
			sites[j] = map[string]any{
				"species": symbols[rng.Intn(len(symbols))],
				"xyz":     []any{rng.Float64(), rng.Float64(), rng.Float64()},
			}
		}
		docs[i] = document.D{
			"_id":            fmt.Sprintf("mat-b%06d", i),
			"pretty_formula": "LiFePO4",
			"elements":       []any{"Fe", "Li", "O", "P"},
			"nelements":      int64(4),
			"band_gap":       float64(i) / 120,
			"e_per_atom":     -rng.Float64() * 8,
			"final_energy":   -rng.Float64() * 200,
			"nelectrons":     int64(rng.Intn(400)),
			"structure":      map[string]any{"sites": sites, "lattice": []any{4.1, 4.2, 4.3}},
		}
	}
	return docs
}

// rangeFilter and rangeOpts select 100 of the 600 bench-shaped
// documents, sorted by band_gap.
var (
	rangeFilter = document.D{"band_gap": document.D{"$gte": 1.0, "$lt": 3.0}}
	rangeOpts   = &datastore.FindOpts{Sort: []string{"band_gap"}, Limit: 100}
)

// checkRangePage fails the test unless docs is the page rangeFilter and
// rangeOpts select.
func checkRangePage(t *testing.T, docs []document.D) {
	t.Helper()
	if len(docs) != 100 || docs[0]["_id"] != "mat-b000120" {
		t.Fatalf("range read returned %d documents starting at %v", len(docs), docs[0]["_id"])
	}
}

// loopbackRouter starts a 2-group loopback cluster (one member per
// group) holding the bench-shaped corpus with a band_gap index, with rc
// as the router's result cache (nil for none).
func loopbackRouter(t *testing.T, rc *rcache.Cache) *cluster.Router {
	t.Helper()
	reg := obs.NewRegistry()
	var groups [][]string
	for gi := 0; gi < 2; gi++ {
		srv := httptest.NewServer(cluster.NewNode(fmt.Sprintf("node-%d", gi), datastore.MustOpenMemory(), reg))
		t.Cleanup(srv.Close)
		groups = append(groups, []string{srv.URL})
	}
	r, err := cluster.NewRouter(cluster.RouterOptions{Groups: groups, Registry: reg, Cache: rc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.EnsureOrderedIndex("materials", "band_gap")
	if _, err := r.C("materials").InsertMany(benchShapedDocs(600)); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRoutedRangeReadAllocations counts the allocations of a routed
// range read — 100 of 600 documents shaped like the bench corpus, sorted
// by band_gap, over a 2-group loopback cluster with no result cache — and
// asserts at most 110 % of routedRangeReadAllocs. Allocation counts
// repeat run to run where wall time does not, so the read path's cost is
// pinned here. It is not run under the race detector, which allocates on
// its own.
func TestRoutedRangeReadAllocations(t *testing.T) {
	c := loopbackRouter(t, nil).C("materials")
	read := func() {
		got, err := c.FindAll(rangeFilter, rangeOpts)
		if err != nil {
			t.Fatal(err)
		}
		checkRangePage(t, got)
	}
	read() // warm connections and the index's sorted key list
	allocs := testing.AllocsPerRun(20, read)
	bound := routedRangeReadAllocs * 11 / 10
	t.Logf("routed range read: %.0f allocations (recorded %d, bound %d)", allocs, routedRangeReadAllocs, bound)
	if allocs > float64(bound) {
		t.Errorf("routed range read allocated %.0f times, want at most %d (110 %% of %d)", allocs, bound, routedRangeReadAllocs)
	}
}

// cachedReadAllocBound caps the allocations of an engine read served
// from the result cache. A hit hands out the cached slice itself, so
// what it allocates — filter translation, the cache key — does not grow
// with the result; 100 is far below one allocation per returned
// document.
const cachedReadAllocBound = 100

// TestCachedReadAllocations counts the allocations of an engine read of
// 100 documents that the result cache answers, on the standalone
// backend and on a 2-group loopback router sharing the engine's cache
// (as mpserve wires them), and asserts at most cachedReadAllocBound.
func TestCachedReadAllocations(t *testing.T) {
	store := datastore.MustOpenMemory()
	store.C("materials").EnsureOrderedIndex("band_gap")
	if _, err := store.C("materials").InsertMany(benchShapedDocs(600)); err != nil {
		t.Fatal(err)
	}
	rc := rcache.New(64, nil)
	routedRC := rcache.New(64, nil)
	for _, b := range []struct {
		name string
		eng  *queryengine.Engine
		rc   *rcache.Cache
	}{
		{"standalone", queryengine.New(store, queryengine.WithCache(rc)), rc},
		{"routed", queryengine.NewWithBackend(loopbackRouter(t, routedRC), queryengine.WithCache(routedRC)), routedRC},
	} {
		read := func() {
			got, err := b.eng.Find("u", "materials", rangeFilter, rangeOpts)
			if err != nil {
				t.Fatal(err)
			}
			checkRangePage(t, got)
		}
		read() // fill the cache
		before := b.rc.Stats().Hits
		allocs := testing.AllocsPerRun(20, read)
		if hits := b.rc.Stats().Hits - before; hits < 20 {
			t.Fatalf("%s: %d of the counted reads hit the cache, want every one", b.name, hits)
		}
		t.Logf("%s cached read of 100 documents: %.0f allocations", b.name, allocs)
		if allocs > cachedReadAllocBound {
			t.Errorf("%s cached read allocated %.0f times, want at most %d", b.name, allocs, cachedReadAllocBound)
		}
	}
}
