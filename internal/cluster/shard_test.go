package cluster_test

// The sharding and replication semantics the paper leaves to MongoDB
// (§IV-D2), checked against the router over live httptest nodes: hash
// placement on _id, scatter-gather equivalence with one store,
// replication of writes and index definitions, and replica promotion on
// failover.

import (
	"errors"
	"fmt"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/queryengine"
)

func doc(s string) document.D { return document.MustFromJSON(s) }

// seeded boots a cluster and inserts n materials through the router,
// leaving _id unset so the router mints it.
func seeded(t *testing.T, shards, replicas, n int) *testCluster {
	t.Helper()
	tc := startCluster(t, shards, replicas)
	routed := tc.router.C("materials")
	for i := 0; i < n; i++ {
		d := document.D{
			"formula":    fmt.Sprintf("F%03d", i),
			"elements":   []any{"Fe", "O"},
			"nelectrons": int64(10 + i),
			"chemsys":    fmt.Sprintf("sys%d", i%5),
		}
		if _, err := routed.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

// memberCount counts matches on one member's local store, bypassing
// the router.
func (tc *testCluster) memberCount(t *testing.T, gi, mi int, filter document.D) int {
	t.Helper()
	n, err := tc.nodes[gi][mi].Store().C("materials").Count(filter)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// groupsHolding lists the groups whose primary stores the given _id.
func (tc *testCluster) groupsHolding(t *testing.T, id string) []int {
	t.Helper()
	var out []int
	for gi := range tc.nodes {
		if tc.memberCount(t, gi, 0, document.D{"_id": id}) > 0 {
			out = append(out, gi)
		}
	}
	return out
}

func TestInsertDistributesAcrossShards(t *testing.T) {
	tc := seeded(t, 4, 0, 200)
	total := 0
	var counts []int
	for gi := range tc.nodes {
		counts = append(counts, tc.memberCount(t, gi, 0, nil))
	}
	for gi, n := range counts {
		total += n
		if n == 0 {
			t.Errorf("shard %d empty (counts %v)", gi, counts)
		}
		// Hash balance: no shard should hold more than half at n=200.
		if n > 100 {
			t.Errorf("shard %d badly skewed: %d/200", gi, n)
		}
	}
	if total != 200 {
		t.Errorf("total = %d", total)
	}
}

func TestScatterGatherFindMatchesSingleStore(t *testing.T) {
	// Same data in one flat store and one sharded cluster must produce
	// identical query results under a sort.
	single := datastore.MustOpenMemory().C("materials")
	tc := seeded(t, 3, 0, 120)
	routed := tc.router.C("materials")
	docs, err := routed.FindAll(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := single.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	filter := doc(`{"nelectrons": {"$gte": 50, "$lt": 90}}`)
	opts := &datastore.FindOpts{Sort: []string{"-nelectrons"}, Skip: 3, Limit: 10}
	want, err := single.FindAll(filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := routed.FindAll(filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i]["formula"] != want[i]["formula"] {
			t.Errorf("row %d: %v vs %v", i, got[i]["formula"], want[i]["formula"])
		}
	}
}

func TestCountAndFindID(t *testing.T) {
	tc := seeded(t, 3, 1, 60)
	routed := tc.router.C("materials")
	n, err := routed.Count(doc(`{"nelectrons": {"$lt": 40}}`))
	if err != nil || n != 30 {
		t.Errorf("count = %d err=%v", n, err)
	}
	id, err := routed.Insert(doc(`{"formula": "Target", "nelectrons": 999}`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.router.Get("materials", id)
	if err != nil || got["formula"] != "Target" {
		t.Errorf("got %v err %v", got, err)
	}
	// The replica of the owning group holds the document too, and a
	// bounded-staleness read (which may be served by that replica)
	// returns it.
	owners := tc.groupsHolding(t, id)
	if len(owners) != 1 {
		t.Fatalf("id %s held by groups %v", id, owners)
	}
	replica, err := tc.nodes[owners[0]][1].Store().C("materials").FindID(id)
	if err != nil || replica["formula"] != "Target" {
		t.Errorf("replica copy: %v err %v", replica, err)
	}
	stale, err := routed.FindAll(document.D{"_id": id}, &datastore.FindOpts{MaxStaleness: 1})
	if err != nil || len(stale) != 1 || stale[0]["formula"] != "Target" {
		t.Errorf("bounded-staleness read: %v err %v", stale, err)
	}
	if _, err := tc.router.Get("materials", "ghost"); !errors.Is(err, datastore.ErrNotFound) {
		t.Errorf("ghost err = %v", err)
	}
}

// TestShardKeyRouting checks _id is the shard key: each document lives on
// exactly one group, an _id-equality read touches only that group, and a
// document whose key is not a string is rejected rather than placed.
func TestShardKeyRouting(t *testing.T) {
	tc := startCluster(t, 4, 0)
	routed := tc.router.C("materials")
	for i := 0; i < 40; i++ {
		if _, err := routed.Insert(document.D{
			"_id": fmt.Sprintf("mp-%d", i), "chemsys": fmt.Sprintf("sys%d", i%4), "n": int64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := routed.FindAll(doc(`{"chemsys": "sys1"}`), nil)
	if err != nil || len(docs) != 10 {
		t.Fatalf("docs = %d err=%v", len(docs), err)
	}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("mp-%d", i)
		if owners := tc.groupsHolding(t, id); len(owners) != 1 {
			t.Errorf("%s held by groups %v", id, owners)
		}
	}
	// A shard-key equality filter touches exactly one shard.
	fanout := tc.reg.Counter("cluster_scatter_fanout_total").Value()
	one, err := routed.FindAll(doc(`{"_id": "mp-7"}`), nil)
	if err != nil || len(one) != 1 || one[0]["n"] != int64(7) {
		t.Fatalf("pinned read = %v err=%v", one, err)
	}
	if got := tc.reg.Counter("cluster_scatter_fanout_total").Value(); got != fanout+1 {
		t.Errorf("pinned fanout = %d, want %d", got-fanout, 1)
	}
	// A keyless document gets a minted key and one home.
	id, err := routed.Insert(doc(`{"n": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if owners := tc.groupsHolding(t, id); len(owners) != 1 {
		t.Errorf("minted %s held by groups %v", id, owners)
	}
	// A non-string shard key is rejected.
	if _, err := routed.Insert(doc(`{"_id": 5, "n": 2}`)); err == nil {
		t.Error("non-string _id accepted")
	}
	if n, _ := routed.Count(nil); n != 41 {
		t.Errorf("count = %d, want 41", n)
	}
}

func TestUpdateAndRemoveReplicate(t *testing.T) {
	tc := seeded(t, 2, 2, 30)
	routed := tc.router.C("materials")
	res, err := routed.UpdateMany(doc(`{"nelectrons": {"$lt": 20}}`), doc(`{"$set": {"flag": true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Modified != 10 {
		t.Errorf("modified = %d", res.Modified)
	}
	// Every member position agrees after replicated writes: summing
	// member mi across groups gives the cluster-wide count.
	sumAt := func(mi int, filter document.D) int {
		n := 0
		for gi := range tc.nodes {
			n += tc.memberCount(t, gi, mi, filter)
		}
		return n
	}
	for mi := 0; mi < 3; mi++ {
		if n := sumAt(mi, doc(`{"flag": true}`)); n != 10 {
			t.Errorf("member %d flagged = %d", mi, n)
		}
	}
	removed, err := tc.router.Remove("materials", doc(`{"flag": true}`))
	if err != nil || removed != 10 {
		t.Fatalf("removed = %d err=%v", removed, err)
	}
	if n, _ := routed.Count(nil); n != 20 {
		t.Errorf("after remove: routed count = %d", n)
	}
	for mi := 0; mi < 3; mi++ {
		if n := sumAt(mi, nil); n != 20 {
			t.Errorf("after remove: member %d holds %d", mi, n)
		}
	}
}

func TestFailoverPromotesReplica(t *testing.T) {
	tc := seeded(t, 2, 1, 40)
	routed := tc.router.C("materials")
	before, err := routed.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	tc.servers[0][0].CloseClientConnections()
	tc.servers[0][0].Close()
	after, err := routed.Count(nil)
	if err != nil || before != after {
		t.Errorf("data lost in failover: %d -> %d (err %v)", before, after, err)
	}
	if p := tc.router.Primary(0); p != tc.servers[0][1].URL {
		t.Errorf("promoted primary = %q, want replica %q", p, tc.servers[0][1].URL)
	}
	// Writes continue against the promoted primary.
	if _, err := routed.Insert(doc(`{"formula": "PostFail", "nelectrons": 1}`)); err != nil {
		t.Fatal(err)
	}
	n, _ := routed.Count(doc(`{"formula": "PostFail"}`))
	if n != 1 {
		t.Error("post-failover write lost")
	}
	// Exhausting the group's members fails cleanly.
	tc.servers[0][1].CloseClientConnections()
	tc.servers[0][1].Close()
	if _, err := routed.Count(nil); !errors.Is(err, queryengine.ErrUnavailable) {
		t.Errorf("read with a dead group: err = %v, want ErrUnavailable", err)
	}
	if p := tc.router.Primary(99); p != "" {
		t.Errorf("out-of-range shard primary = %q", p)
	}
}

func TestEnsureIndexEverywhere(t *testing.T) {
	tc := seeded(t, 2, 1, 50)
	tc.router.EnsureOrderedIndex("materials", "nelectrons")
	for gi, nodes := range tc.nodes {
		for mi, n := range nodes {
			idx := n.Store().C("materials").Stats().Indexes
			found := false
			for _, p := range idx {
				found = found || p == "nelectrons"
			}
			if !found {
				t.Errorf("member %d/%d indexes = %v", gi, mi, idx)
			}
		}
	}
	// Indexed query returns the same results on every member position.
	f := doc(`{"nelectrons": {"$gte": 30}}`)
	np, err := tc.router.C("materials").Count(f)
	if err != nil || np == 0 {
		t.Fatalf("routed count = %d err=%v", np, err)
	}
	ns := 0
	for gi := range tc.nodes {
		ns += tc.memberCount(t, gi, 1, f)
	}
	if np != ns {
		t.Errorf("primary=%d secondary=%d", np, ns)
	}
}
