package cluster_test

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/faults"
	"matproj/internal/obs"
	"matproj/internal/pipeline"
	"matproj/internal/rcache"
)

// The seeded fault injector must satisfy the router's transport-fault
// contract structurally (the faults package is imported by neither side).
var _ cluster.TransportFaults = (*faults.Injector)(nil)

// testCluster is a live networked cluster on httptest servers.
type testCluster struct {
	router *cluster.Router
	reg    *obs.Registry
	// servers[gi][mi] backs groups[gi][mi].
	servers [][]*httptest.Server
	nodes   [][]*cluster.Node
}

// startCluster boots shards×replicas nodes and a router over them.
// replicas counts extra members beyond the primary.
func startCluster(t *testing.T, shards, replicas int) *testCluster {
	t.Helper()
	return startClusterCache(t, shards, replicas, nil)
}

// startClusterCache is startCluster with a router-side result cache.
func startClusterCache(t *testing.T, shards, replicas int, rc *rcache.Cache) *testCluster {
	t.Helper()
	tc := &testCluster{reg: obs.NewRegistry()}
	var groups [][]string
	for gi := 0; gi < shards; gi++ {
		var urls []string
		var srvs []*httptest.Server
		var nodes []*cluster.Node
		for mi := 0; mi <= replicas; mi++ {
			n := cluster.NewNode(fmt.Sprintf("node-%d-%d", gi, mi), datastore.MustOpenMemory(), tc.reg)
			srv := httptest.NewServer(n)
			t.Cleanup(srv.Close)
			urls = append(urls, srv.URL)
			srvs = append(srvs, srv)
			nodes = append(nodes, n)
		}
		groups = append(groups, urls)
		tc.servers = append(tc.servers, srvs)
		tc.nodes = append(tc.nodes, nodes)
	}
	r, err := cluster.NewRouter(cluster.RouterOptions{Groups: groups, Registry: tc.reg, Cache: rc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	tc.router = r
	return tc
}

func seedMaterials(t *testing.T, ins interface {
	Insert(doc document.D) (string, error)
}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := ins.Insert(document.D{
			"_id":            fmt.Sprintf("mat-%03d", i),
			"pretty_formula": fmt.Sprintf("X%dO", i%7),
			"band_gap":       float64(i%50) / 10,
			"nelements":      int64(i%4 + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoutedReadsMatchStandalone checks that a routed 2-shard cluster
// answers exactly like one local store holding the same corpus:
// scatter-gather with global merge-sort/skip/limit, count, distinct,
// point gets, and aggregation.
func TestRoutedReadsMatchStandalone(t *testing.T) {
	tc := startCluster(t, 2, 1)
	local := datastore.MustOpenMemory()

	seedMaterials(t, tc.router.C("materials"), 40)
	seedMaterials(t, localColl{local.C("materials")}, 40)

	routed := tc.router.C("materials")
	filter := document.D{"band_gap": document.D{"$gte": 2.0}}
	opts := &datastore.FindOpts{Sort: []string{"-band_gap", "_id"}, Skip: 3, Limit: 10}

	want, err := local.C("materials").FindAll(filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := routed.FindAll(filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("routed find = %d docs, standalone = %d", len(got), len(want))
	}
	for i := range want {
		if !document.Equal(got[i], want[i]) {
			t.Errorf("doc %d:\n routed %v\n  local %v", i, got[i], want[i])
		}
	}

	wn, _ := local.C("materials").Count(filter)
	gn, err := routed.Count(filter)
	if err != nil || gn != wn {
		t.Errorf("count = %d (err %v), want %d", gn, err, wn)
	}

	wd, _ := local.C("materials").Distinct("pretty_formula", nil)
	gd, err := routed.Distinct("pretty_formula", nil)
	if err != nil || len(gd) != len(wd) {
		t.Errorf("distinct = %v (err %v), want %v", gd, err, wd)
	}
	for i := range wd {
		if !document.Equal(gd[i], wd[i]) {
			t.Errorf("distinct[%d] = %v, want %v", i, gd[i], wd[i])
		}
	}

	// Point get routes by hashed _id (no scatter).
	scattersBefore := tc.reg.Counter("cluster_scatter_total").Value()
	d, err := tc.router.Get("materials", "mat-007")
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := d["_id"].(string); id != "mat-007" {
		t.Errorf("get _id = %q", id)
	}
	if tc.reg.Counter("cluster_scatter_total").Value() != scattersBefore {
		t.Error("point get scattered")
	}
	if _, err := tc.router.Get("materials", "mat-999"); err != datastore.ErrNotFound {
		t.Errorf("missing get err = %v, want ErrNotFound", err)
	}

	// Cross-shard aggregation merges at the router via the datastore's
	// own pipeline executor.
	pipeline := []document.D{
		{"$match": document.D{"band_gap": document.D{"$gte": 1.0}}},
		{"$group": document.D{"_id": "$nelements", "n": document.D{"$sum": 1}, "max_gap": document.D{"$max": "$band_gap"}}},
		{"$sort": document.D{"_id": 1}},
	}
	wantAgg, err := local.C("materials").Aggregate(pipeline)
	if err != nil {
		t.Fatal(err)
	}
	gotAgg, err := routed.Aggregate(pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAgg) != len(wantAgg) {
		t.Fatalf("agg = %v, want %v", gotAgg, wantAgg)
	}
	for i := range wantAgg {
		if !document.Equal(gotAgg[i], wantAgg[i]) {
			t.Errorf("agg[%d] = %v, want %v", i, gotAgg[i], wantAgg[i])
		}
	}

	// A $match pinning _id pushes the whole pipeline to one shard.
	pinned := []document.D{
		{"$match": document.D{"_id": "mat-007"}},
		{"$project": document.D{"band_gap": 1}},
	}
	one, err := routed.Aggregate(pinned)
	if err != nil || len(one) != 1 {
		t.Fatalf("pinned agg = %v (err %v)", one, err)
	}
}

// localColl adapts *datastore.Collection to the seeding interface.
type localColl struct{ c *datastore.Collection }

func (l localColl) Insert(doc document.D) (string, error) { return l.c.Insert(doc) }

// TestRoutedWritesReplicate checks updates and removes reach every group
// member, and that UpdateOne modifies exactly one document cluster-wide.
func TestRoutedWritesReplicate(t *testing.T) {
	tc := startCluster(t, 2, 1)
	routed := tc.router.C("materials")
	seedMaterials(t, routed, 20)

	res, err := routed.UpdateMany(document.D{"nelements": 2}, document.D{"$set": document.D{"flagged": true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched == 0 || res.Matched != res.Modified {
		t.Errorf("update res = %+v", res)
	}
	// Every member of every group must agree: replicas receive each
	// write through the log before the router answers.
	for gi, nodes := range tc.nodes {
		var counts []int
		for _, n := range nodes {
			c, _ := n.Store().C("materials").Count(document.D{"flagged": true})
			counts = append(counts, c)
		}
		for _, c := range counts[1:] {
			if c != counts[0] {
				t.Errorf("group %d replica drift: %v", gi, counts)
			}
		}
	}

	one, err := routed.UpdateOne(document.D{"flagged": true}, document.D{"$set": document.D{"chosen": true}})
	if err != nil {
		t.Fatal(err)
	}
	if one.Modified != 1 {
		t.Errorf("UpdateOne modified = %d", one.Modified)
	}
	n, err := routed.Count(document.D{"chosen": true})
	if err != nil || n != 1 {
		t.Errorf("chosen count = %d (err %v)", n, err)
	}

	removed, err := tc.router.Remove("materials", document.D{"nelements": 2})
	if err != nil || removed == 0 {
		t.Fatalf("remove = %d (err %v)", removed, err)
	}
	left, _ := routed.Count(nil)
	if left != 20-removed {
		t.Errorf("left = %d, removed = %d", left, removed)
	}
}

// TestCopyCollectionsRecreatesIndexes loads a 2x2 cluster the way
// mpserve's router role does and checks every source index — the
// compound one included — exists on every member and answers routed
// queries like the source.
func TestCopyCollectionsRecreatesIndexes(t *testing.T) {
	tc := startCluster(t, 2, 1)
	src := datastore.MustOpenMemory()
	mats := src.C("materials")
	seedMaterials(t, localColl{mats}, 40)
	mats.EnsureOrderedIndex("nelements", "band_gap")
	mats.EnsureOrderedIndex("pretty_formula")
	copied, err := pipeline.CopyCollections(tc.router, src)
	if err != nil || copied != 40 {
		t.Fatalf("copied %d docs, err %v", copied, err)
	}
	want := []string{"nelements,band_gap", "pretty_formula"}
	for gi, nodes := range tc.nodes {
		for mi, n := range nodes {
			got := n.Store().C("materials").Stats().Indexes
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("member %d/%d indexes = %v, want %v", gi, mi, got, want)
			}
		}
	}
	filter := document.D{"nelements": int64(2), "band_gap": document.D{"$gte": 1.0}}
	wantN, _ := mats.Count(filter)
	gotN, err := tc.router.C("materials").Count(filter)
	if err != nil || gotN != wantN || wantN == 0 {
		t.Fatalf("routed count = %d (err %v), source count = %d", gotN, err, wantN)
	}
}

// TestRoutedMapReduce runs the grouping a MapReduce job expresses —
// documents counted per formula — as a $group pipeline across three
// shards, and checks the router's merge equals a standalone store's.
func TestRoutedMapReduce(t *testing.T) {
	tc := startCluster(t, 3, 0)
	local := datastore.MustOpenMemory()
	seedMaterials(t, tc.router.C("materials"), 30)
	seedMaterials(t, localColl{local.C("materials")}, 30)

	stages := []document.D{
		{"$group": document.D{"_id": "$pretty_formula", "value": document.D{"$sum": 1}}},
		{"$sort": document.D{"_id": 1}},
	}
	want, err := local.C("materials").Aggregate(stages)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.router.C("materials").Aggregate(stages)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) != 7 {
		t.Fatalf("group = %v, want %v (7 formulas)", got, want)
	}
	for i := range want {
		if !document.Equal(got[i], want[i]) {
			t.Errorf("group[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// scriptedFaults drops the first n calls, then behaves.
type scriptedFaults struct {
	mu   sync.Mutex
	drop int
}

func (s *scriptedFaults) DropCall() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drop > 0 {
		s.drop--
		return true
	}
	return false
}
func (s *scriptedFaults) CallError() bool          { return false }
func (s *scriptedFaults) CallDelay() time.Duration { return 0 }

// TestInjectedDropFailsOver: a dropped transport call marks the member
// down and the read retries on the replica — the caller never sees the
// fault.
func TestInjectedDropFailsOver(t *testing.T) {
	tc := startCluster(t, 1, 1)
	routed := tc.router.C("materials")
	seedMaterials(t, routed, 10)

	tc.router.InjectFaults(&scriptedFaults{drop: 1})
	docs, err := routed.FindAll(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 10 {
		t.Errorf("docs = %d", len(docs))
	}
	if v := tc.reg.Counter("cluster_calls_dropped_total").Value(); v != 1 {
		t.Errorf("dropped calls = %d", v)
	}
	if v := tc.reg.Counter("cluster_failover_total").Value(); v != 1 {
		t.Errorf("failovers = %d", v)
	}
	// The dropped member recovers on the next health sweep.
	tc.router.InjectFaults(nil)
	if healthy := tc.router.CheckNow(); healthy != 2 {
		t.Errorf("healthy after recovery sweep = %d", healthy)
	}
}

// TestSeededInjectorOnTransport drives the router with the real seeded
// injector: with aggressive drop rates most reads must still succeed
// (replica failover + recovery sweeps), and the injector's stats must
// account for every dropped call.
func TestSeededInjectorOnTransport(t *testing.T) {
	tc := startCluster(t, 2, 1)
	routed := tc.router.C("materials")
	seedMaterials(t, routed, 20)

	inj := faults.New(faults.Config{Seed: 42, DropCallRate: 0.2})
	tc.router.InjectFaults(inj)
	failures := 0
	for i := 0; i < 50; i++ {
		if _, err := routed.FindAll(nil, &datastore.FindOpts{Limit: 5}); err != nil {
			failures++
			// Both members of a group can be down at once; a health sweep
			// is the operator's recovery path.
			tc.router.InjectFaults(nil)
			tc.router.CheckNow()
			tc.router.InjectFaults(inj)
		}
	}
	st := inj.Stats()
	if st.DroppedCalls == 0 {
		t.Error("injector never fired")
	}
	if uint64(st.DroppedCalls) != tc.reg.Counter("cluster_calls_dropped_total").Value() {
		t.Errorf("stats drift: injector %d, router counter %d",
			st.DroppedCalls, tc.reg.Counter("cluster_calls_dropped_total").Value())
	}
	if failures > 25 {
		t.Errorf("too many failed reads: %d/50", failures)
	}
}

// TestFailoverEndToEnd is the 2-shard × 2-member kill test: load a
// corpus through the router, kill one shard's primary server outright,
// and check reads still return the full corpus, the replica was
// promoted, and the failover counter incremented.
func TestFailoverEndToEnd(t *testing.T) {
	tc := startCluster(t, 2, 1)
	routed := tc.router.C("materials")
	seedMaterials(t, routed, 60)

	before, err := routed.FindAll(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 60 {
		t.Fatalf("pre-kill corpus = %d", len(before))
	}

	// Kill shard 1's primary (the process, not a soft flag).
	killedURL := tc.router.Primary(1)
	if killedURL != tc.servers[1][0].URL {
		t.Fatalf("primary(1) = %q, want %q", killedURL, tc.servers[1][0].URL)
	}
	tc.servers[1][0].CloseClientConnections()
	tc.servers[1][0].Close()

	failoversBefore := tc.reg.Counter("cluster_failover_total").Value()
	after, err := routed.FindAll(nil, nil)
	if err != nil {
		t.Fatalf("post-kill read: %v", err)
	}
	if len(after) != 60 {
		t.Errorf("post-kill corpus = %d", len(after))
	}
	if got := tc.reg.Counter("cluster_failover_total").Value(); got != failoversBefore+1 {
		t.Errorf("cluster_failover_total = %d, want %d", got, failoversBefore+1)
	}
	if p := tc.router.Primary(1); p != tc.servers[1][1].URL {
		t.Errorf("promoted primary = %q, want replica %q", p, tc.servers[1][1].URL)
	}

	// Writes keep landing on the surviving member.
	if _, err := routed.Insert(document.D{"_id": "post-kill", "band_gap": 1.5}); err != nil {
		t.Fatalf("post-kill insert: %v", err)
	}
	d, err := tc.router.Get("materials", "post-kill")
	if err != nil || d == nil {
		t.Fatalf("post-kill get: %v", err)
	}

	// Health sweep confirms the dead member stays dead and the cluster
	// reports 3 healthy members.
	if healthy := tc.router.CheckNow(); healthy != 3 {
		t.Errorf("healthy members = %d, want 3", healthy)
	}
}

// TestScatterMetrics checks the fan-out accounting the ISSUE calls for:
// scatter counters and per-shard latency histograms.
func TestScatterMetrics(t *testing.T) {
	tc := startCluster(t, 4, 0)
	routed := tc.router.C("materials")
	seedMaterials(t, routed, 8)

	scatters := tc.reg.Counter("cluster_scatter_total").Value()
	fanout := tc.reg.Counter("cluster_scatter_fanout_total").Value()
	if _, err := routed.FindAll(nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := tc.reg.Counter("cluster_scatter_total").Value(); got != scatters+1 {
		t.Errorf("scatter_total = %d, want %d", got, scatters+1)
	}
	if got := tc.reg.Counter("cluster_scatter_fanout_total").Value(); got != fanout+4 {
		t.Errorf("fanout_total = %d, want %d", got, fanout+4)
	}
	// A shard-key-pinned read fans out to exactly one shard.
	fanout = tc.reg.Counter("cluster_scatter_fanout_total").Value()
	if _, err := routed.FindAll(document.D{"_id": "mat-003"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := tc.reg.Counter("cluster_scatter_fanout_total").Value(); got != fanout+1 {
		t.Errorf("pinned fanout = %d, want %d", got, fanout+1)
	}
	snap := tc.reg.Snapshot()
	found := 0
	for name := range snap.Histograms {
		for gi := 0; gi < 4; gi++ {
			if name == fmt.Sprintf("cluster_shard%d_ms", gi) {
				found++
			}
		}
	}
	if found != 4 {
		t.Errorf("per-shard latency histograms = %d, want 4", found)
	}
}
