//go:build !race

package cluster_test

import (
	"bytes"
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

// routedRangeReadAllocs and routedRangeBytesAllocs are what one routed
// range read allocated, node side included, when their bounds were last
// set. Both read the nodes' documents as bytes and merge on their keys;
// the tree read (FindAll) then parses the 100 documents it returns, and
// the byte read (an engine's AppendFind, what the REST edge calls)
// splices them without parsing any.
const (
	routedRangeReadAllocs  = 10703
	routedRangeBytesAllocs = 1725
)

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
// by band_gap, over a 2-group loopback cluster with no result cache — as
// documents (FindAll) and as bytes (an engine's AppendFind), and asserts
// at most 110 % of each one's recorded count. Allocation counts repeat
// run to run where wall time does not, so the read path's cost is pinned
// here. The negative control: the tree read does not fit the byte read's
// bound, so a byte path that parsed the documents it forwards would fail
// it. It is not run under the race detector, which allocates on its own.
func TestRoutedRangeReadAllocations(t *testing.T) {
	r := loopbackRouter(t, nil)
	c := r.C("materials")
	eng := queryengine.NewWithBackend(r)
	var buf []byte
	rows := []struct {
		name     string
		recorded int
		read     func()
	}{
		{"tree", routedRangeReadAllocs, func() {
			got, err := c.FindAll(rangeFilter, rangeOpts)
			if err != nil {
				t.Fatal(err)
			}
			checkRangePage(t, got)
		}},
		{"bytes", routedRangeBytesAllocs, func() {
			b, n, err := eng.AppendFind(buf[:0], "u", "materials", rangeFilter, rangeOpts)
			if err != nil {
				t.Fatal(err)
			}
			if n != 100 || !bytes.HasPrefix(b, []byte(`[{"_id":"mat-b000120",`)) {
				t.Fatalf("byte read returned %d documents: %.40s", n, b)
			}
			buf = b
		}},
	}
	allocs := map[string]float64{}
	for _, row := range rows {
		row.read() // warm connections and the index's sorted key list
		allocs[row.name] = testing.AllocsPerRun(20, row.read)
		bound := row.recorded * 11 / 10
		t.Logf("routed range read as %s: %.0f allocations (recorded %d, bound %d)", row.name, allocs[row.name], row.recorded, bound)
		if allocs[row.name] > float64(bound) {
			t.Errorf("routed range read as %s allocated %.0f times, want at most %d (110 %% of %d)", row.name, allocs[row.name], bound, row.recorded)
		}
	}
	if bound := routedRangeBytesAllocs * 11 / 10; allocs["tree"] <= float64(bound) {
		t.Errorf("the tree read's %.0f allocations fit the byte read's bound %d; the bound would not catch a parse", allocs["tree"], bound)
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
