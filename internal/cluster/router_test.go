package cluster_test

import (
	"fmt"
	"testing"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/document"
)

// TestNewRouterValidation: a router needs at least one group, and every
// group needs at least one member.
func TestNewRouterValidation(t *testing.T) {
	if _, err := cluster.NewRouter(cluster.RouterOptions{}); err == nil {
		t.Error("zero groups accepted")
	}
	if _, err := cluster.NewRouter(cluster.RouterOptions{Groups: [][]string{{"http://a"}, {}}}); err == nil {
		t.Error("empty group accepted")
	}
}

// TestRoutedBadFilterAndSortPropagate: a malformed filter or sort on a
// scattered read comes back as an error, never as an empty result.
func TestRoutedBadFilterAndSortPropagate(t *testing.T) {
	tc := startCluster(t, 2, 0)
	routed := tc.router.C("materials")
	seedMaterials(t, routed, 10)

	bad := document.D{"$bogus": int64(1)}
	if _, err := routed.FindAll(bad, nil); err == nil {
		t.Error("bad find filter accepted")
	}
	if _, err := routed.Count(bad); err == nil {
		t.Error("bad count filter accepted")
	}
	if _, err := routed.FindAll(nil, &datastore.FindOpts{Sort: []string{""}}); err == nil {
		t.Error("bad sort accepted")
	}
}

// TestRoutedInsertRejectsNonStringID: every routed insert path refuses a
// non-string _id with the standalone store's error instead of storing
// the document under a minted id.
func TestRoutedInsertRejectsNonStringID(t *testing.T) {
	tc := startCluster(t, 2, 1)
	routed := tc.router.C("materials")
	local := datastore.MustOpenMemory().C("materials")

	_, wantErr := local.Insert(document.D{"_id": int64(5)})
	if wantErr == nil {
		t.Fatal("standalone accepted a non-string _id")
	}
	if _, err := routed.Insert(document.D{"_id": int64(5)}); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("routed Insert err = %v, want %v", err, wantErr)
	}

	batch := []document.D{{"_id": "ok-1"}, {"_id": int64(5)}, {"_id": "ok-2"}}
	if _, err := tc.router.InsertMany("materials", batch); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("routed InsertMany err = %v, want %v", err, wantErr)
	}
	if n, err := routed.Count(nil); err != nil || n != 0 {
		t.Errorf("after rejected batch: count = %d (err %v), want 0", n, err)
	}

	ops := []datastore.BulkOp{
		{Op: datastore.BulkInsert, Doc: document.D{"_id": "bw-1"}},
		{Op: datastore.BulkInsert, Doc: document.D{"_id": int64(5)}},
		{Op: datastore.BulkInsert, Doc: document.D{"_id": "bw-2"}},
	}
	want, err := local.BulkWrite(ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.router.BulkWrite("materials", ops)
	if err != nil {
		t.Fatal(err)
	}
	if got.Inserted != 2 || got.Inserted != want.Inserted {
		t.Errorf("bulk inserted = %d, standalone %d, want 2", got.Inserted, want.Inserted)
	}
	for i := range ops {
		if got.PerOp[i].Error != want.PerOp[i].Error {
			t.Errorf("op %d error = %q, standalone %q", i, got.PerOp[i].Error, want.PerOp[i].Error)
		}
	}
	if got.PerOp[1].Error == "" {
		t.Error("non-string _id op carries no error")
	}
	if n, err := routed.Count(nil); err != nil || n != 2 {
		t.Errorf("after bulk: count = %d (err %v), want 2", n, err)
	}
}

// TestRoutedDistinctMatchesStandalone: the router's cross-shard distinct
// union equals a standalone store's Distinct on a field with 5,000
// distinct values, and on mixed int64/float64 values where 3 and 3.0
// live on different groups and must collapse to one.
func TestRoutedDistinctMatchesStandalone(t *testing.T) {
	tc := startCluster(t, 2, 0)
	routed := tc.router.C("materials")
	local := datastore.MustOpenMemory().C("materials")

	const n = 5000
	docs := make([]document.D, n)
	for i := range docs {
		docs[i] = document.D{"_id": fmt.Sprintf("d-%05d", i), "k": int64(n - i)}
	}
	on0, on1 := idsOnShard(t, 0, 2, 3), idsOnShard(t, 1, 2, 3)
	mixed := []struct {
		id string
		v  any
	}{
		{on0[0], int64(3)}, {on1[0], float64(3)},
		{on0[1], 2.5}, {on1[1], 2.5},
		{on0[2], int64(7)}, {on1[2], "x"},
	}
	for _, m := range mixed {
		docs = append(docs, document.D{"_id": m.id, "m": m.v})
	}
	if _, err := tc.router.InsertMany("materials", docs); err != nil {
		t.Fatal(err)
	}
	if _, err := local.InsertMany(docs); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"k", "m"} {
		want, err := local.Distinct(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := routed.Distinct(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("distinct %s: %d values, standalone %d", path, len(got), len(want))
		}
		for i := range want {
			if !document.Equal(got[i], want[i]) {
				t.Errorf("distinct %s [%d] = %v, standalone %v", path, i, got[i], want[i])
			}
		}
	}
	if got, _ := routed.Distinct("m", nil); len(got) != 4 {
		t.Errorf("mixed distinct = %v, want 4 values (3 and 3.0 collapse)", got)
	}
}

// TestRoutedSortedReadPlansLikeStandalone: a sorted read without a
// projection reaches the nodes without one, so each shard's planner may
// emit in index order, as a standalone store's does.
func TestRoutedSortedReadPlansLikeStandalone(t *testing.T) {
	tc := startCluster(t, 2, 0)
	local := datastore.MustOpenMemory()
	seedMaterials(t, tc.router.C("materials"), 40)
	seedMaterials(t, localColl{local.C("materials")}, 40)
	tc.router.EnsureOrderedIndex("materials", "band_gap")
	local.C("materials").EnsureOrderedIndex("band_gap")

	filter := document.D{"band_gap": document.D{"$gte": 1.0}}
	opts := &datastore.FindOpts{Sort: []string{"band_gap"}, Limit: 3}
	want, err := local.C("materials").Explain(filter, opts)
	if err != nil || want["sort_satisfied"] != true {
		t.Fatalf("standalone plan %v, err %v: want sort_satisfied", want, err)
	}
	plan, err := tc.router.C("materials").Explain(filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	shards, _ := plan["shards"].([]any)
	if len(shards) != 2 {
		t.Fatalf("routed plan has %d shard plans: %v", len(shards), plan)
	}
	for _, s := range shards {
		if sp, _ := s.(document.D); sp["sort_satisfied"] != true {
			t.Errorf("shard plan %v: want sort_satisfied, as standalone", s)
		}
	}
}
