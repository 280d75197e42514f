package cluster_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/queryengine"
	"matproj/internal/rcache"
)

// findOracleDocs is the aggregation oracle's corpus with a nested field
// for dotted sorts: s.v is an integer, null or missing, and s itself is
// sometimes missing.
func findOracleDocs(rng *rand.Rand, n int) []document.D {
	docs := oracleDocs(rng, n)
	for _, d := range docs {
		switch rng.Intn(4) {
		case 0:
		case 1:
			d["s"] = map[string]any{"v": nil}
		default:
			d["s"] = map[string]any{"v": int64(rng.Intn(5)), "w": fmt.Sprintf("w%d", rng.Intn(3))}
		}
	}
	return docs
}

// findCase is one read of the find oracle.
type findCase struct {
	filter document.D
	opts   *datastore.FindOpts
}

func (c findCase) String() string {
	if c.opts == nil {
		return fmt.Sprintf("filter %v, no options", c.filter)
	}
	return fmt.Sprintf("filter %v, sort %v, skip %d, limit %d, projection %v", c.filter, c.opts.Sort, c.opts.Skip, c.opts.Limit, c.opts.Projection)
}

// genFindCase draws a read: a filter (some pin one _id, some match
// nothing), a sort over integer, string-or-null-or-missing, mixed-type,
// array, dotted and nested-document fields, ascending or descending, one
// or two keys, and a skip, limit and projection. Every sort ends in an
// _id tiebreak, so the order is total and a routed answer must equal
// the standalone one exactly; a read with no sort is ordered by _id on
// both sides, because the corpus is inserted in _id order.
func genFindCase(rng *rand.Rand) findCase {
	filters := append([]document.D{nil, {"_id": "d-005"}}, oracleMatches...)
	c := findCase{filter: filters[rng.Intn(len(filters))]}
	if rng.Intn(8) == 0 {
		return c
	}
	c.opts = &datastore.FindOpts{}
	sorts := [][]string{nil, {"k"}, {"g"}, {"f"}, {"m"}, {"tags"}, {"s.v"}, {"s"}, {"missing"}, {"k", "-i"}, {"g", "-s.v"}}
	for _, field := range sorts[rng.Intn(len(sorts))] {
		if rng.Intn(2) == 0 && field[0] != '-' {
			field = "-" + field
		}
		c.opts.Sort = append(c.opts.Sort, field)
	}
	if len(c.opts.Sort) > 0 {
		c.opts.Sort = append(c.opts.Sort, []string{"_id", "-_id"}[rng.Intn(2)])
	}
	if rng.Intn(2) == 0 {
		c.opts.Skip = rng.Intn(30) - 10 // negative skips count as 0
	}
	if rng.Intn(3) > 0 {
		c.opts.Limit = 1 + rng.Intn(15)
	}
	projections := []document.D{nil, {"g": int64(1), "f": int64(1)}, {"tags": int64(0), "m": int64(0)}, {"_id": int64(0), "k": int64(1)}, {"sel": int64(1)}}
	if len(c.opts.Sort) > 0 {
		// Drop the leading sort field, by exclusion or by omission.
		lead := c.opts.Sort[0]
		if lead[0] == '-' {
			lead = lead[1:]
		}
		projections = append(projections, document.D{lead: int64(0)}, document.D{lead: int64(0), "_id": int64(0)})
	}
	c.opts.Projection = projections[rng.Intn(len(projections))]
	return c
}

// TestRoutedFindOracle runs seeded reads against 1-, 2- and 4-group
// loopback clusters and a standalone store holding the same documents,
// and requires the same answer from each: the documents the router's
// FindAll parses, and the bytes an engine's AppendFind writes over the
// router, must equal the standalone store's result and its encoding. The
// 4-group cluster's router and engine share a result cache and answer
// every read twice, so cached replies and cached arrays are checked too.
func TestRoutedFindOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	docs := findOracleDocs(rng, 64)
	local := datastore.MustOpenMemory().C("find")
	for _, d := range docs {
		if _, err := local.Insert(d.Copy()); err != nil {
			t.Fatal(err)
		}
	}
	type routed struct {
		tc     *testCluster
		eng    *queryengine.Engine
		shards int
		passes int
	}
	var clusters []routed
	for _, shards := range []int{1, 2, 4} {
		var rc *rcache.Cache
		passes := 1
		if shards == 4 {
			rc, passes = rcache.New(1024, nil), 2
		}
		tc := startClusterCache(t, shards, 0, rc)
		for _, d := range docs {
			if _, err := tc.router.Insert("find", d.Copy()); err != nil {
				t.Fatal(err)
			}
		}
		clusters = append(clusters, routed{tc, queryengine.NewWithBackend(tc.router, queryengine.WithCache(rc)), shards, passes})
	}

	sortedDropped := 0
	for i := 0; i < 300; i++ {
		c := genFindCase(rng)
		want, err := local.FindAll(c.filter, c.opts)
		if err != nil {
			t.Fatalf("%v: standalone: %v", c, err)
		}
		wantJSON, err := document.AppendJSON(nil, append([]document.D{}, want...))
		if err != nil {
			t.Fatal(err)
		}
		if c.opts != nil && len(c.opts.Sort) > 0 && c.opts.Projection != nil {
			sortedDropped++
		}
		for _, cl := range clusters {
			for pass := 0; pass < cl.passes; pass++ {
				got, err := cl.tc.router.C("find").FindAll(c.filter, c.opts)
				if err != nil {
					t.Fatalf("%v on %d groups: %v", c, cl.shards, err)
				}
				gotJSON, err := document.AppendJSON(nil, append([]document.D{}, got...))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("%v on %d groups (pass %d): FindAll\n got %s\nwant %s", c, cl.shards, pass, gotJSON, wantJSON)
				}
				arr, n, err := cl.eng.AppendFind(nil, "u", "find", c.filter, c.opts)
				if err != nil {
					t.Fatalf("%v on %d groups: AppendFind: %v", c, cl.shards, err)
				}
				if !bytes.Equal(arr, wantJSON) || n != len(want) {
					t.Fatalf("%v on %d groups (pass %d): AppendFind (%d rows)\n got %s\nwant %s (%d rows)", c, cl.shards, pass, n, arr, wantJSON, len(want))
				}
			}
		}
	}
	if sortedDropped < 50 {
		t.Errorf("only %d of the reads were sorted and projected", sortedDropped)
	}
}
