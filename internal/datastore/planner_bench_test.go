package datastore

import (
	"fmt"
	"math/rand"
	"testing"

	"matproj/internal/document"
)

// BenchmarkRangeQuery measures the tentpole workload — a ~1%-selectivity
// numeric range query with an order-by on the same field — with and
// without an ordered index, at 10k and 100k documents.
func BenchmarkRangeQuery(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, indexed := range []bool{true, false} {
			name := fmt.Sprintf("docs=%d/indexed=%v", n, indexed)
			b.Run(name, func(b *testing.B) {
				c := MustOpenMemory().C("bench")
				if indexed {
					c.EnsureOrderedIndex("value")
				}
				rng := rand.New(rand.NewSource(int64(n)))
				for i := 0; i < n; i++ {
					if _, err := c.Insert(document.D{
						"_id":   fmt.Sprintf("b%06d", i),
						"value": rng.Float64() * 100,
						"group": int64(rng.Intn(40)),
					}); err != nil {
						b.Fatal(err)
					}
				}
				filter := document.D{"value": document.D{"$gte": 49.5, "$lt": 50.5}}
				opts := &FindOpts{Sort: []string{"value"}}
				if _, err := c.FindAll(filter, opts); err != nil { // warmup: lazy key sort
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.FindAll(filter, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
