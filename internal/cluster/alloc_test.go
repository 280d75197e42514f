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
)

// routedRangeReadAllocs is what one routed range read allocated, node
// side included, when the node deep-copied every match, encoding/json
// encoded and decoded the reply and document.Normalize rebuilt it:
// 105,859 in this test at the commit before the one-pass codec.
const routedRangeReadAllocs = 105859

// TestRoutedRangeReadAllocations counts the allocations of a routed
// range read — 100 of 600 documents shaped like the bench corpus, sorted
// by band_gap, over a 2-group loopback cluster with no result cache — and
// asserts at most half of routedRangeReadAllocs. Allocation counts
// repeat run to run where wall time does not, so the gain the codec
// claims is pinned here. It is not run under the race detector, which
// allocates on its own.
func TestRoutedRangeReadAllocations(t *testing.T) {
	reg := obs.NewRegistry()
	var groups [][]string
	for gi := 0; gi < 2; gi++ {
		srv := httptest.NewServer(cluster.NewNode(fmt.Sprintf("node-%d", gi), datastore.MustOpenMemory(), reg))
		t.Cleanup(srv.Close)
		groups = append(groups, []string{srv.URL})
	}
	r, err := cluster.NewRouter(cluster.RouterOptions{Groups: groups, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.EnsureOrderedIndex("materials", "band_gap")

	rng := rand.New(rand.NewSource(1))
	symbols := []string{"Li", "Fe", "O", "P", "Mn", "Co", "Ni", "S", "Si", "Ti"}
	docs := make([]document.D, 600)
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
			"band_gap":       float64(i) / 120, // [0, 5): 100 documents per unit
			"e_per_atom":     -rng.Float64() * 8,
			"final_energy":   -rng.Float64() * 200,
			"nelectrons":     int64(rng.Intn(400)),
			"structure":      map[string]any{"sites": sites, "lattice": []any{4.1, 4.2, 4.3}},
		}
	}
	c := r.C("materials")
	if _, err := c.InsertMany(docs); err != nil {
		t.Fatal(err)
	}

	filter := document.D{"band_gap": document.D{"$gte": 1.0, "$lt": 3.0}}
	opts := &datastore.FindOpts{Sort: []string{"band_gap"}, Limit: 100}
	read := func() {
		got, err := c.FindAll(filter, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 || got[0]["_id"] != "mat-b000120" {
			t.Fatalf("range read returned %d documents starting at %v", len(got), got[0]["_id"])
		}
	}
	read() // warm connections and the index's sorted key list
	allocs := testing.AllocsPerRun(20, read)
	t.Logf("routed range read: %.0f allocations (%d before the one-pass codec)", allocs, routedRangeReadAllocs)
	if allocs > routedRangeReadAllocs/2 {
		t.Errorf("routed range read allocated %.0f times, want at most %d (half of %d)", allocs, routedRangeReadAllocs/2, routedRangeReadAllocs)
	}
}
