package datastore

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"matproj/internal/document"
	"matproj/internal/faults"
	"matproj/internal/obs"
)

// Group-commit regression and chaos tests: the batched journal must ack
// exactly what a replay recovers, in the order it was applied, under
// racing writers and under injected append loss and torn tails.

// dumpAll snapshots every collection's documents keyed by id.
func dumpAll(t *testing.T, s *Store) map[string]map[string]document.D {
	t.Helper()
	out := map[string]map[string]document.D{}
	for _, name := range s.Collections() {
		docs, err := s.C(name).FindAll(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]document.D{}
		for _, d := range docs {
			m[d.GetString("_id")] = d
		}
		out[name] = m
	}
	return out
}

// TestReplayMatchesStateAfterRacingWriters is the regression test for
// the journal/apply order divergence: records used to be serialized to
// the journal outside the collection lock, so two racing updates to the
// same document could land in the file in the opposite order from how
// they were applied in memory — replay then resurrected the losing
// write. Records are now staged inside the collection's critical
// section, so whatever state the racing writers left behind is exactly
// the state a replay reconstructs.
func TestReplayMatchesStateAfterRacingWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.C("mats")
	// Shared documents every writer fights over.
	const shared = 8
	for i := 0; i < shared; i++ {
		if _, err := c.Insert(document.D{"_id": fmt.Sprintf("shared-%d", i), "v": int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("shared-%d", (w+i)%shared)
				c.UpdateOne(document.D{"_id": id},
					document.D{"$set": document.D{"v": int64(w*1000 + i), "by": fmt.Sprintf("w%d", w)}})
				if i%5 == 0 {
					c.Insert(document.D{"_id": fmt.Sprintf("own-%d-%d", w, i), "w": int64(w)})
				}
				if i%7 == 0 {
					c.RemoveID(fmt.Sprintf("own-%d-%d", w, i-i%7))
				}
			}
		}(w)
	}
	wg.Wait()
	want := dumpAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := dumpAll(t, s2)
	for name, docs := range want {
		for id, d := range docs {
			g, ok := got[name][id]
			if !ok {
				t.Fatalf("replay lost %s/%s", name, id)
			}
			if fmt.Sprint(g) != fmt.Sprint(d) {
				t.Errorf("replay diverged on %s/%s:\n  live   %v\n  replay %v", name, id, d, g)
			}
		}
		if len(got[name]) != len(docs) {
			t.Errorf("%s: %d docs after replay, want %d", name, len(got[name]), len(docs))
		}
	}
}

// TestReplayAdvancesIDCounter is the regression test for generated-id
// reuse after restart: replay used to rebuild documents without
// advancing the oid counter, so the first insert-without-id in a new
// process minted an id already owned by a replayed document. Any
// oid-form id entering the store — replayed, restored, or replicated —
// must push the counter past itself.
func TestReplayAdvancesIDCounter(t *testing.T) {
	dir := t.TempDir()
	// A journal holding an insert with a generated-form id far above
	// anything this process has minted (a fresh process replaying a
	// previous life's journal).
	const highID = "oid00ffff000000" // 0xffff000000 ≈ 1.1e12 ids
	line := fmt.Sprintf(`{"op":"i","c":"x","id":"%s","doc":{"_id":"%s","v":1}}`+"\n", highID, highID)
	if err := os.WriteFile(JournalFile(dir), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if cur := idCounter.Load(); cur < 0xffff000000 {
		t.Fatalf("idCounter %#x after replay, want >= %#x", cur, uint64(0xffff000000))
	}
	// The actual failure mode: a fresh insert-without-id must not
	// collide with the replayed document.
	id, err := s.C("x").Insert(document.D{"v": int64(2)})
	if err != nil {
		t.Fatalf("insert without id after replay: %v", err)
	}
	if id == highID {
		t.Fatalf("minted id %s collides with replayed document", id)
	}
	n, _ := s.C("x").Count(nil)
	if n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
}

// TestReplResetAdvancesIDCounter covers the same id-reuse hazard on the
// snapshot-install path: a follower re-seeded via ReplReset holds the
// leader's generated ids and must not mint duplicates afterwards.
func TestReplResetAdvancesIDCounter(t *testing.T) {
	src := MustOpenMemory()
	defer src.Close()
	src.EnableReplication(64)
	const highID = "oid00fffe000000"
	if _, err := src.C("x").Insert(document.D{"_id": highID, "v": int64(1)}); err != nil {
		t.Fatal(err)
	}
	lines, head, err := src.ReplSnapshotEntries()
	if err != nil {
		t.Fatal(err)
	}

	dst := MustOpenMemory()
	defer dst.Close()
	dst.EnableReplication(64)
	if err := dst.ReplReset(lines, head); err != nil {
		t.Fatal(err)
	}
	if cur := idCounter.Load(); cur < 0xfffe000000 {
		t.Fatalf("idCounter %#x after ReplReset, want >= %#x", cur, uint64(0xfffe000000))
	}
	id, err := dst.C("x").Insert(document.D{"v": int64(2)})
	if err != nil {
		t.Fatalf("insert after reset: %v", err)
	}
	if id == highID {
		t.Fatal("minted id collides with restored document")
	}
}

// TestTearTailChaosRecoversAckedPrefix tears a random chunk off the
// journal after a clean run: the reopened store must hold an exact
// contiguous prefix of the acked inserts — nothing reordered, nothing
// past the tear surviving, nothing before it lost.
func TestTearTailChaosRecoversAckedPrefix(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			const n = 40
			for i := 0; i < n; i++ {
				if _, err := s.C("x").Insert(document.D{"_id": fmt.Sprintf("d%03d", i), "v": int64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			inj := faults.New(faults.Config{Seed: seed})
			if _, err := inj.TearTail(JournalFile(dir), 200); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after tear: %v", err)
			}
			defer s2.Close()
			docs, err := s2.C("x").FindAll(nil, &FindOpts{Sort: []string{"v"}})
			if err != nil {
				t.Fatal(err)
			}
			// Exact contiguous prefix: doc i present iff i < len(docs).
			for i, d := range docs {
				if want := fmt.Sprintf("d%03d", i); d.GetString("_id") != want {
					t.Fatalf("recovered doc %d is %s, want %s (prefix broken)", i, d.GetString("_id"), want)
				}
			}
			if len(docs) < n-4 {
				// Journal lines here run ~65 bytes, so a 200-byte tear
				// can destroy at most four records.
				t.Fatalf("tear removed %d records, expected at most 4", n-len(docs))
			}
		})
	}
}

// TestDropAppendChaosLosesExactlyDroppedRecords runs an insert-only
// workload with silent append loss injected: every insert still acks
// (the loss models a lost page after the ack), and the replayed store
// must hold exactly the acked set minus the dropped records — the
// injector's own count, no more, no fewer.
func TestDropAppendChaosLosesExactlyDroppedRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 42, DropAppendRate: 0.2})
	s.InjectJournalFaults(inj)
	const n = 100
	acked := map[string]bool{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%03d", i)
		if _, err := s.C("x").Insert(document.D{"_id": id, "v": int64(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		acked[id] = true
	}
	dropped := inj.Stats().DroppedAppends
	if dropped == 0 {
		t.Fatal("injector dropped nothing; the chaos run is vacuous")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	docs, err := s2.C("x").FindAll(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(docs), n-dropped; got != want {
		t.Errorf("recovered %d docs, want %d (%d acked - %d dropped)", got, want, n, dropped)
	}
	for _, d := range docs {
		if !acked[d.GetString("_id")] {
			t.Errorf("recovered unacked document %s", d.GetString("_id"))
		}
	}
}

// TestConcurrentBatchedWriteStress races InsertMany, BulkWrite, and
// UpdateMany against each other on a durable store — the race-detector
// workout for the group-commit queue — then replays and checks the
// survivor count is consistent.
func TestConcurrentBatchedWriteStress(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.C("x")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 10; b++ {
				docs := make([]document.D, 5)
				for i := range docs {
					docs[i] = document.D{"_id": fmt.Sprintf("im-%d-%d-%d", w, b, i), "grp": int64(w)}
				}
				if _, err := c.InsertMany(docs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 10; b++ {
				ops := []BulkOp{
					{Op: BulkInsert, Doc: document.D{"_id": fmt.Sprintf("bw-%d-%d", w, b), "grp": int64(w + 100)}},
					{Op: BulkUpdateMany, Filter: document.D{"grp": int64(w)}, Update: document.D{"$set": document.D{"touched": true}}},
					{Op: BulkDelete, Filter: document.D{"_id": fmt.Sprintf("bw-%d-%d", w, b-1)}},
				}
				if _, err := c.BulkWrite(ops); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 10; b++ {
				c.UpdateMany(document.D{"grp": int64(w + 100)}, document.D{"$inc": document.D{"n": int64(1)}})
			}
		}(w)
	}
	wg.Wait()
	want, err := c.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 writers × 10 batches × 5 docs, plus one bw- survivor per bulk
	// writer (each round deletes the previous round's insert).
	if want != 4*10*5+4 {
		t.Fatalf("live count = %d, want %d", want, 4*10*5+4)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := s2.C("x").Count(nil)
	if got != want {
		t.Fatalf("replayed count = %d, want %d", got, want)
	}
}

// TestBatchedWritesShareOneFsync pins the group-commit cost model by
// counting fsyncs instead of timing them: a batch's journal records
// ride one commit, so InsertMany and BulkWrite cost one fsync however
// many documents they carry, while sequential singleton inserts pay one
// each.
func TestBatchedWritesShareOneFsync(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.Observe(reg, nil)
	c := s.C("tasks")
	fsyncs := func() uint64 {
		return reg.Snapshot().Histograms["datastore.journal.fsync_ms"].Count
	}
	cost := func(name string, write func() error) uint64 {
		t.Helper()
		before := fsyncs()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return fsyncs() - before
	}

	docs := make([]document.D, 500)
	for i := range docs {
		docs[i] = document.D{"_id": fmt.Sprintf("many-%d", i), "n": int64(i)}
	}
	if got := cost("InsertMany", func() error { _, err := c.InsertMany(docs); return err }); got != 1 {
		t.Errorf("InsertMany of 500 docs cost %d fsyncs, want 1", got)
	}

	ops := make([]BulkOp, 500)
	for i := range ops {
		ops[i] = BulkOp{Op: BulkInsert, Doc: document.D{"_id": fmt.Sprintf("bulk-%d", i), "n": int64(i)}}
	}
	if got := cost("BulkWrite", func() error {
		res, err := c.BulkWrite(ops)
		if err == nil && res.Inserted != len(ops) {
			err = fmt.Errorf("inserted %d of %d", res.Inserted, len(ops))
		}
		return err
	}); got != 1 {
		t.Errorf("BulkWrite of 500 inserts cost %d fsyncs, want 1", got)
	}

	if got := cost("Insert", func() error {
		for i := 0; i < 100; i++ {
			if _, err := c.Insert(document.D{"_id": fmt.Sprintf("one-%d", i)}); err != nil {
				return err
			}
		}
		return nil
	}); got != 100 {
		t.Errorf("100 sequential inserts cost %d fsyncs, want 100", got)
	}
}
