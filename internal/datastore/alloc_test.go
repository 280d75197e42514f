//go:build !race

package datastore

import (
	"bytes"
	"fmt"
	"testing"

	"matproj/internal/document"
)

// sortedRangeReadAllocBound caps the allocations of a 100-row sorted
// band_gap range read through AppendFind. The index walk emits each
// bucket's ids in insertion order; with one id per band_gap value, a
// walk that built and sorted a slice per bucket cost two allocations
// per row on its own.
const sortedRangeReadAllocBound = 100

// TestSortedRangeReadAllocations counts the allocations of an
// index-walked read — 100 of 600 documents, sorted by the indexed
// band_gap — and asserts at most sortedRangeReadAllocBound. It is not
// run under the race detector, which allocates on its own.
func TestSortedRangeReadAllocations(t *testing.T) {
	c := MustOpenMemory().C("materials")
	c.EnsureOrderedIndex("band_gap")
	for i := 0; i < 600; i++ {
		if _, err := c.Insert(document.D{
			"_id":            fmt.Sprintf("mat-%06d", i),
			"pretty_formula": "LiFePO4",
			"band_gap":       float64(i) / 120,
			"nelectrons":     int64(i % 400),
		}); err != nil {
			t.Fatal(err)
		}
	}
	filter := document.D{"band_gap": document.D{"$gte": 1.0, "$lt": 3.0}}
	opts := &FindOpts{Sort: []string{"band_gap"}, Limit: 100}
	var buf []byte
	read := func() {
		b, n, err := c.AppendFind(buf[:0], filter, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n != 100 || !bytes.HasPrefix(b, []byte(`[{"_id":"mat-000120",`)) {
			t.Fatalf("read returned %d documents: %.40s", n, b)
		}
		buf = b
	}
	read() // build the index's sorted key list
	allocs := testing.AllocsPerRun(20, read)
	t.Logf("sorted range read of 100 documents: %.0f allocations", allocs)
	if allocs > sortedRangeReadAllocBound {
		t.Errorf("sorted range read allocated %.0f times, want at most %d", allocs, sortedRangeReadAllocBound)
	}
}
