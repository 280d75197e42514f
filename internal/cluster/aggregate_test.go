package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
	"matproj/internal/rcache"
)

// aggCase is one oracle pipeline: its stages, the path a scattered
// (multi-group) run must take, and the output fields whose values are
// float sums or means (compared within 1e-9 relative; every other value
// compares exactly).
type aggCase struct {
	name     string
	pipeline []document.D
	path     string // "partial", "gather" or "pinned"
	floats   map[string]bool
}

// oracleDocs builds the seeded corpus: grouping keys that are strings,
// null or missing; integer fields well inside 2^53; positive float
// fields that are sometimes absent or a string; a mixed-type field for
// $min/$max; tag arrays for $unwind.
func oracleDocs(rng *rand.Rand, n int) []document.D {
	docs := make([]document.D, n)
	for i := range docs {
		d := document.D{"_id": fmt.Sprintf("d-%03d", i), "sel": int64(rng.Intn(10)), "k": int64(rng.Intn(4))}
		switch rng.Intn(5) {
		case 0, 1, 2:
			d["g"] = []string{"x", "y", "z"}[rng.Intn(3)]
		case 3:
			d["g"] = nil
		} // 4: g missing
		d["i"] = int64(rng.Intn(2_000_000_000_001) - 1_000_000_000_000)
		switch rng.Intn(6) {
		case 0:
		case 1:
			d["f"] = "n/a"
		default:
			d["f"] = rng.Float64() * 100
		}
		switch rng.Intn(7) {
		case 0:
			d["m"] = int64(rng.Intn(100))
		case 1:
			d["m"] = rng.Float64() * 100
		case 2:
			d["m"] = fmt.Sprintf("s%02d", rng.Intn(100))
		case 3:
			d["m"] = rng.Intn(2) == 0
		case 4:
			d["m"] = nil
		case 5:
			d["m"] = int64(rng.Intn(100) - 50)
		} // 6: m missing
		switch rng.Intn(4) {
		case 0:
		case 1:
			d["tags"] = []any{}
		default:
			var tags []any
			for range 1 + rng.Intn(3) {
				tags = append(tags, []string{"a", "b", "c", "d"}[rng.Intn(4)])
			}
			d["tags"] = tags
		}
		docs[i] = d
	}
	return docs
}

var (
	oracleMatches = []document.D{
		{"sel": document.D{"$gte": int64(3)}},
		{"sel": document.D{"$lt": int64(7)}},
		{"sel": int64(4)},
		{"sel": int64(99)},                                           // matches nothing
		{"_id": document.D{"$in": []any{"d-001", "d-002", "d-003"}}}, // some shards hold no match
		{"g": "x"},
		{"g": nil},
	}
	oracleKeys = []any{"$g", nil, "$missing", "$k", "$tags"}
	// oracleAccs are the splittable accumulators; float marks a float
	// sum or mean.
	oracleAccs = []struct {
		spec  document.D
		float bool
	}{
		{document.D{"$sum": int64(1)}, false},
		{document.D{"$sum": int64(3)}, false},
		{document.D{"$sum": "$i"}, false},
		{document.D{"$sum": "$f"}, true},
		{document.D{"$avg": "$f"}, true},
		{document.D{"$avg": "$i"}, true},
		{document.D{"$avg": "$m"}, true},
		{document.D{"$min": "$m"}, false},
		{document.D{"$max": "$m"}, false},
		{document.D{"$min": "$f"}, false},
		{document.D{"$max": "$i"}, false},
		{document.D{"$count": document.D{}}, false},
	}
	oracleOrderAccs = []document.D{
		{"$first": "$m"}, {"$last": "$i"}, {"$push": "$g"}, {"$addToSet": "$k"},
	}
)

// genAggCase draws one pipeline. Partial shapes put only $match,
// $project and $unwind before a splittable $group or $count; gather
// shapes use an order-dependent accumulator or a $skip/$limit before the
// $group, always after a $sort on _id so the standalone answer is
// deterministic.
func genAggCase(rng *rand.Rand, i int) aggCase {
	c := aggCase{name: fmt.Sprintf("case%03d", i), floats: map[string]bool{}}
	var p []document.D
	if rng.Intn(4) > 0 {
		p = append(p, document.D{"$match": oracleMatches[rng.Intn(len(oracleMatches))]})
	}
	gather := rng.Intn(4) == 0
	if gather {
		p = append(p, document.D{"$sort": document.D{"_id": int64(1)}})
		if rng.Intn(2) == 0 {
			p = append(p, document.D{[]string{"$skip", "$limit"}[rng.Intn(2)]: int64(1 + rng.Intn(8))})
		}
	}
	if rng.Intn(3) == 0 {
		p = append(p, document.D{"$unwind": "$tags"})
	}
	if rng.Intn(4) == 0 {
		p = append(p, document.D{"$project": document.D{"g": int64(1), "k": int64(1), "i": int64(1), "f": int64(1), "m": int64(1), "tags": int64(1)}})
	}
	if !gather && rng.Intn(6) == 0 {
		p = append(p, document.D{"$count": "total"})
		c.pipeline, c.path = p, "partial"
		return c
	}
	group := document.D{"_id": oracleKeys[rng.Intn(len(oracleKeys))]}
	for j, n := 0, 1+rng.Intn(4); j < n; j++ {
		a := oracleAccs[rng.Intn(len(oracleAccs))]
		name := fmt.Sprintf("a%d", j)
		group[name] = a.spec
		if a.float {
			c.floats[name] = true
		}
	}
	if gather && rng.Intn(2) == 0 {
		group["o"] = oracleOrderAccs[rng.Intn(len(oracleOrderAccs))]
	}
	p = append(p, document.D{"$group": group})
	switch rng.Intn(4) {
	case 0:
		p = append(p, document.D{"$sort": document.D{"_id": int64(-1)}}, document.D{"$limit": int64(2)})
	case 1:
		p = append(p, document.D{"$sort": document.D{"a0": int64(1)}})
		if c.floats["a0"] {
			// A float key can order near-equal rows differently.
			p = p[:len(p)-1]
		}
	case 2:
		p = append(p, document.D{"$project": document.D{"a0": int64(1)}})
	}
	c.pipeline = p
	c.path = "partial"
	if gather {
		c.path = "gather"
	}
	return c
}

// fixedAggCases are the shapes the generator might miss: a $count over
// an empty match, a terminal $count with no $match, the bench's
// mixed-stream aggregate, pinned _id matches, a $group straight after a
// $limit, and order-dependent accumulators whose answer does not depend
// on document order here (one document per group, or a value equal to
// the key). They live in testdata/fixed_pipelines.json, which
// restapi's read-only check runs too.
func fixedAggCases() []aggCase {
	b, err := os.ReadFile(filepath.Join("testdata", "fixed_pipelines.json"))
	if err != nil {
		panic(err)
	}
	var raw []struct {
		Name     string            `json:"name"`
		Path     string            `json:"path"`
		Floats   []string          `json:"floats"`
		Pipeline []json.RawMessage `json:"pipeline"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		panic(err)
	}
	cases := make([]aggCase, len(raw))
	for i, r := range raw {
		c := aggCase{name: r.Name, path: r.Path, floats: map[string]bool{}}
		for _, f := range r.Floats {
			c.floats[f] = true
		}
		for _, st := range r.Pipeline {
			d, err := document.FromJSON(st)
			if err != nil {
				panic(err)
			}
			c.pipeline = append(c.pipeline, d)
		}
		cases[i] = c
	}
	return cases
}

// compareAggRows checks routed rows against standalone rows: same rows
// in the same order, exact on every value except the named float
// fields, which may differ by 1e-9 relative (shard order changes the
// order of float additions).
func compareAggRows(got, want []document.D, floats map[string]bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
		for k, wv := range want[i] {
			gv, ok := got[i][k]
			if !ok {
				return fmt.Errorf("row %d lacks %q: %v, want %v", i, k, got[i], want[i])
			}
			if document.Equal(gv, wv) {
				continue
			}
			gf, gok := gv.(float64)
			wf, wok := wv.(float64)
			if floats[k] && gok && wok && math.Abs(gf-wf) <= 1e-9*math.Max(math.Abs(gf), math.Abs(wf)) {
				continue
			}
			return fmt.Errorf("row %d field %q = %v (%T), want %v (%T)", i, k, gv, gv, wv, wv)
		}
	}
	return nil
}

// TestRoutedAggregateOracle runs seeded pipelines against 1-, 2- and
// 4-group loopback clusters and a standalone store holding the same
// documents, and requires the same answer from each, through the path
// the pipeline's shape selects. The 4-group router has a result cache
// and answers every pipeline twice, so cached state rows are checked
// too.
func TestRoutedAggregateOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	docs := oracleDocs(rng, 64)
	local := datastore.MustOpenMemory().C("agg")
	for _, d := range docs {
		if _, err := local.Insert(d.Copy()); err != nil {
			t.Fatal(err)
		}
	}
	type routed struct {
		tc     *testCluster
		shards int
		passes int
	}
	var clusters []routed
	for _, shards := range []int{1, 2, 4} {
		var tc *testCluster
		passes := 1
		if shards == 4 {
			tc = startClusterCache(t, shards, 0, rcache.New(256, nil))
			passes = 2
		} else {
			tc = startCluster(t, shards, 0)
		}
		for _, d := range docs {
			if _, err := tc.router.Insert("agg", d.Copy()); err != nil {
				t.Fatal(err)
			}
		}
		clusters = append(clusters, routed{tc, shards, passes})
	}

	cases := fixedAggCases()
	for i := 0; len(cases) < 220; i++ {
		cases = append(cases, genAggCase(rng, i))
	}
	paths := map[string]int{}
	for _, c := range cases {
		want, err := local.Aggregate(c.pipeline)
		if err != nil {
			t.Fatalf("%s: standalone: %v\n%v", c.name, err, c.pipeline)
		}
		for _, cl := range clusters {
			path := c.path
			if cl.shards == 1 {
				path = "pinned" // one group holds every document
			}
			paths[path]++
			counter := cl.tc.reg.Counter("cluster.aggregate_" + path)
			before := counter.Value()
			for pass := 0; pass < cl.passes; pass++ {
				got, err := cl.tc.router.C("agg").Aggregate(c.pipeline)
				if err != nil {
					t.Fatalf("%s on %d groups: %v\n%v", c.name, cl.shards, err, c.pipeline)
				}
				if err := compareAggRows(got, want, c.floats); err != nil {
					t.Fatalf("%s on %d groups (pass %d): %v\npipeline %v", c.name, cl.shards, pass, err, c.pipeline)
				}
			}
			if d := counter.Value() - before; d != uint64(cl.passes) {
				t.Fatalf("%s on %d groups: cluster.aggregate_%s rose by %d, want %d", c.name, cl.shards, path, d, cl.passes)
			}
		}
	}
	for _, p := range []string{"partial", "gather", "pinned"} {
		if paths[p] < 10 {
			t.Errorf("only %d runs took the %s path: %v", paths[p], p, paths)
		}
	}
}

// TestRoutedAggregateOracleRejectsMeanOfMeans is the oracle's negative
// control: combining $avg as the mean of per-shard means is wrong
// whenever shards hold different numbers of values, and the comparison
// the oracle uses must say so.
func TestRoutedAggregateOracleRejectsMeanOfMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	docs := oracleDocs(rng, 64)
	tc := startCluster(t, 4, 0)
	local := datastore.MustOpenMemory().C("agg")
	for _, d := range docs {
		if _, err := local.Insert(d.Copy()); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.router.Insert("agg", d.Copy()); err != nil {
			t.Fatal(err)
		}
	}
	pipeline := []document.D{
		{"$match": document.D{"sel": document.D{"$gte": int64(2)}}},
		{"$group": document.D{"_id": "$g", "a": document.D{"$avg": "$f"}}},
	}
	floats := map[string]bool{"a": true}
	want, err := local.Aggregate(pipeline)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.router.C("agg").Aggregate(pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareAggRows(got, want, floats); err != nil {
		t.Fatalf("routed $avg: %v", err)
	}

	// Mean of shard means, from each group's own store.
	means := map[string][]float64{}
	keys := map[string]any{}
	for gi := range tc.nodes {
		rows, err := tc.nodes[gi][0].Store().C("agg").Aggregate(pipeline)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			k := fmt.Sprint(row["_id"])
			keys[k] = row["_id"]
			if f, ok := row["a"].(float64); ok {
				means[k] = append(means[k], f)
			}
		}
	}
	wrong := make([]document.D, 0, len(want))
	for _, row := range want {
		k := fmt.Sprint(row["_id"])
		sum := 0.0
		for _, m := range means[k] {
			sum += m
		}
		wrong = append(wrong, document.D{"_id": keys[k], "a": sum / float64(len(means[k]))})
	}
	if err := compareAggRows(wrong, want, floats); err == nil {
		t.Fatal("mean of shard means passed the oracle's comparison")
	}
}

// countingTransport counts every node call's request and response bytes.
type countingTransport struct {
	calls, reqBytes, respBytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.calls.Add(1)
	if req.ContentLength > 0 {
		c.reqBytes.Add(req.ContentLength)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = countingBody{ReadCloser: resp.Body, n: &c.respBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// TestRoutedAggregateShipsStateNotDocuments pins the partial path's
// work: the bench's $match nelements / $group {n, avg_gap} over 600
// documents of 1 KB each costs one node call per group and a few
// hundred bytes on the wire, not the matching documents.
func TestRoutedAggregateShipsStateNotDocuments(t *testing.T) {
	reg := obs.NewRegistry()
	var groups [][]string
	for gi := 0; gi < 2; gi++ {
		srv := httptest.NewServer(cluster.NewNode(fmt.Sprintf("node-%d", gi), datastore.MustOpenMemory(), reg))
		t.Cleanup(srv.Close)
		groups = append(groups, []string{srv.URL})
	}
	ct := &countingTransport{}
	r, err := cluster.NewRouter(cluster.RouterOptions{Groups: groups, Registry: reg, Client: &http.Client{Transport: ct}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	local := datastore.MustOpenMemory().C("materials")
	pad := strings.Repeat("x", 1024)
	batch := make([]document.D, 600)
	for i := range batch {
		batch[i] = document.D{
			"_id":       fmt.Sprintf("mat-%04d", i),
			"nelements": int64(2 + i%3),
			"band_gap":  float64(i%97) / 10,
			"pad":       pad,
		}
		if _, err := local.Insert(batch[i].Copy()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.C("materials").InsertMany(batch); err != nil {
		t.Fatal(err)
	}

	pipeline := []document.D{
		{"$match": document.D{"nelements": int64(3)}},
		{"$group": document.D{"_id": "$nelements", "n": document.D{"$sum": int64(1)}, "avg_gap": document.D{"$avg": "$band_gap"}}},
	}
	want, err := local.Aggregate(pipeline)
	if err != nil {
		t.Fatal(err)
	}
	ops := reg.Counter("node_ops_total").Value()
	calls, bytesBefore := ct.calls.Load(), ct.reqBytes.Load()+ct.respBytes.Load()
	got, err := r.C("materials").Aggregate(pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareAggRows(got, want, map[string]bool{"avg_gap": true}); err != nil {
		t.Fatal(err)
	}
	moved := ct.reqBytes.Load() + ct.respBytes.Load() - bytesBefore
	t.Logf("routed aggregate: %d node ops, %d node calls, %d wire bytes", reg.Counter("node_ops_total").Value()-ops, ct.calls.Load()-calls, moved)
	if d := reg.Counter("node_ops_total").Value() - ops; d != 2 {
		t.Errorf("node_ops_total rose by %d, want 2 (one call per group)", d)
	}
	if moved > 4096 {
		t.Errorf("moved %d request+response bytes, want at most 4096", moved)
	}
}
