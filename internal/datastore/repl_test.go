package datastore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"matproj/internal/document"
)

func insertN(t *testing.T, s *Store, coll string, n, base int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.C(coll).Insert(document.D{"_id": fmt.Sprintf("d%d", base+i), "n": base + i}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplGenMintingDurable(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if g := s.ReplGen(); g != 0 {
		t.Fatalf("fresh store gen %d, want 0", g)
	}
	insertN(t, s, "m", 5, 0)
	if g := s.ReplGen(); g != 5 {
		t.Fatalf("gen %d after 5 inserts, want 5", g)
	}
	if _, err := s.C("m").Remove(document.D{"_id": "d0"}); err != nil {
		t.Fatal(err)
	}
	if g := s.ReplGen(); g != 6 {
		t.Fatalf("gen %d after remove, want 6", g)
	}
}

func TestReplGenSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, s, "m", 7, 0)
	want := s.ReplGen()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if g := s2.ReplGen(); g != want {
		t.Fatalf("replayed gen %d, want %d", g, want)
	}
	// New writes keep minting past the restored head.
	insertN(t, s2, "m", 1, 100)
	if g := s2.ReplGen(); g != want+1 {
		t.Fatalf("gen %d after post-replay insert, want %d", g, want+1)
	}
}

func TestReplSnapshotSetsBaseAndGap(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableReplication(0)
	insertN(t, s, "m", 4, 0)
	head := s.ReplGen()
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// The journal was truncated: entries before the snapshot are gone.
	_, _, err = s.ReplTail(0, 100)
	if !errors.Is(err, ErrReplGap) {
		t.Fatalf("tail from 0 after snapshot: err %v, want ErrReplGap", err)
	}
	// Tailing from the snapshot head is fine and empty.
	lines, h, err := s.ReplTail(head, 100)
	if err != nil || len(lines) != 0 || h != head {
		t.Fatalf("tail from head: lines=%d head=%d err=%v", len(lines), h, err)
	}
	// Gen keeps minting; the new entry is servable.
	insertN(t, s, "m", 1, 50)
	lines, h, err = s.ReplTail(head, 100)
	if err != nil || len(lines) != 1 || h != head+1 {
		t.Fatalf("tail past snapshot: lines=%d head=%d err=%v", len(lines), h, err)
	}
}

func TestReplBaseSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, s, "m", 4, 0)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	insertN(t, s, "m", 2, 10)
	want := s.ReplGen()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.EnableReplication(0)
	if g := s2.ReplGen(); g != want {
		t.Fatalf("replayed gen %d, want %d", g, want)
	}
	// Base was restored from the snapshot meta record: pre-snapshot
	// generations are still a gap, post-snapshot ones still servable.
	if _, _, err := s2.ReplTail(0, 100); !errors.Is(err, ErrReplGap) {
		t.Fatalf("tail from 0 after replay: err %v, want ErrReplGap", err)
	}
	lines, _, err := s2.ReplTail(4, 100)
	if err != nil || len(lines) != 2 {
		t.Fatalf("tail from base after replay: lines=%d err=%v", len(lines), err)
	}
}

func TestReplTailAndApplyRoundTrip(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.EnableReplication(0)
	insertN(t, src, "m", 6, 0)
	if _, err := src.C("m").UpdateMany(document.D{"_id": "d2"}, document.D{"$set": document.D{"n": 99}}); err != nil {
		t.Fatal(err)
	}
	lines, head, err := src.ReplTail(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if head != src.ReplGen() || len(lines) != 7 {
		t.Fatalf("tail: %d lines head %d, want 7 lines head %d", len(lines), head, src.ReplGen())
	}

	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	applied, gen, torn, err := dst.ApplyReplEntries(lines)
	if err != nil || torn {
		t.Fatalf("apply: err=%v torn=%v", err, torn)
	}
	if applied != 7 || gen != head {
		t.Fatalf("applied=%d gen=%d, want 7/%d", applied, gen, head)
	}
	n, err := dst.C("m").Count(nil)
	if err != nil || n != 6 {
		t.Fatalf("dst count %d err %v, want 6", n, err)
	}
	cur, err := dst.C("m").Find(document.D{"_id": "d2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	docs := cur.All()
	if len(docs) != 1 || docs[0].GetString("_id") != "d2" {
		t.Fatalf("updated doc missing: %v", docs)
	}
	if v, _ := docs[0].GetFloat("n"); v != 99 {
		t.Fatalf("update not applied: %v", docs[0])
	}
}

func TestReplApplyTornBatchAppliesGoodPrefix(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.EnableReplication(0)
	insertN(t, src, "m", 5, 0)
	lines, _, err := src.ReplTail(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Clip the final framed line mid-checksum: the follower must apply
	// the 4 good entries and refuse the torn one.
	last := lines[len(lines)-1]
	lines[len(lines)-1] = last[:len(last)-3]

	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	applied, gen, torn, err := dst.ApplyReplEntries(lines)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || applied != 4 || gen != 4 {
		t.Fatalf("torn apply: applied=%d gen=%d torn=%v, want 4/4/true", applied, gen, torn)
	}
	n, _ := dst.C("m").Count(nil)
	if n != 4 {
		t.Fatalf("dst count %d after torn batch, want 4", n)
	}
	// A corrupted-but-complete line must not apply either.
	bad := bytes.Replace(lines[0], []byte(`"d0"`), []byte(`"dX"`), 1)
	applied, _, torn, err = dst.ApplyReplEntries([][]byte{bad})
	if err != nil || applied != 0 || !torn {
		t.Fatalf("checksum-mismatch line: applied=%d torn=%v err=%v, want 0/true/nil", applied, torn, err)
	}
}

func TestReplSnapshotEntriesAndReset(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	insertN(t, src, "m", 5, 0)
	insertN(t, src, "tasks", 2, 0)
	if _, err := src.C("m").Remove(document.D{"_id": "d3"}); err != nil {
		t.Fatal(err)
	}
	snap, head, err := src.ReplSnapshotEntries()
	if err != nil {
		t.Fatal(err)
	}
	if head != src.ReplGen() {
		t.Fatalf("snapshot head %d, want %d", head, src.ReplGen())
	}

	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	insertN(t, dst, "stale", 3, 0) // pre-existing state must be wiped
	if err := dst.ReplReset(snap, head); err != nil {
		t.Fatal(err)
	}
	if g := dst.ReplGen(); g != head {
		t.Fatalf("dst gen %d after reset, want %d", g, head)
	}
	if n, _ := dst.C("m").Count(nil); n != 4 {
		t.Fatalf("dst materials %d, want 4", n)
	}
	if n, _ := dst.C("tasks").Count(nil); n != 2 {
		t.Fatalf("dst tasks %d, want 2", n)
	}
	if n, _ := dst.C("stale").Count(nil); n != 0 {
		t.Fatalf("stale collection survived reset: %d docs", n)
	}
	// Reset also set the base: older gens are a gap on dst too.
	if _, _, err := dst.ReplTail(0, 10); !errors.Is(err, ErrReplGap) {
		t.Fatalf("dst tail from 0 after reset: %v, want ErrReplGap", err)
	}
}

func TestReplMemoryRing(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	// Without EnableReplication a memory store mints nothing.
	insertN(t, s, "m", 2, 0)
	if g := s.ReplGen(); g != 0 {
		t.Fatalf("memory store minted gens without EnableReplication: %d", g)
	}

	s2, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	s2.EnableReplication(4)
	insertN(t, s2, "m", 3, 0)
	lines, head, err := s2.ReplTail(0, 10)
	if err != nil || len(lines) != 3 || head != 3 {
		t.Fatalf("ring tail: lines=%d head=%d err=%v", len(lines), head, err)
	}
	// Overflow the capacity-4 ring: oldest entries evict, gap appears.
	insertN(t, s2, "m", 4, 10)
	if _, _, err := s2.ReplTail(0, 10); !errors.Is(err, ErrReplGap) {
		t.Fatalf("overflowed ring tail from 0: %v, want ErrReplGap", err)
	}
	lines, head, err = s2.ReplTail(3, 10)
	if err != nil || len(lines) != 4 || head != 7 {
		t.Fatalf("ring tail from 3: lines=%d head=%d err=%v", len(lines), head, err)
	}
	// Ship the ring entries to a durable follower: framed bytes are
	// format-compatible across backends.
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	full, fullHead, err := s2.ReplSnapshotEntries()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ReplReset(full, fullHead); err != nil {
		t.Fatal(err)
	}
	if n, _ := dst.C("m").Count(nil); n != 7 {
		t.Fatalf("durable follower count %d, want 7", n)
	}
}

func TestReplTailLimit(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableReplication(0)
	insertN(t, s, "m", 10, 0)
	lines, head, err := s.ReplTail(0, 3)
	if err != nil || len(lines) != 3 {
		t.Fatalf("limited tail: lines=%d err=%v", len(lines), err)
	}
	if head != 10 {
		t.Fatalf("head %d, want 10 (full head even when limited)", head)
	}
}

// TestConcurrentOverlappingApplyConverges ships two overlapping batches
// of the same log to one follower at once — as two routed writes'
// ships do — on both store flavors. Entries the other batch applied
// first are skipped, so the follower ends with the source's documents
// and generation whichever batch wins.
func TestConcurrentOverlappingApplyConverges(t *testing.T) {
	src := MustOpenMemory()
	src.EnableReplication(0)
	insertN(t, src, "m", 30, 0)
	if _, err := src.C("m").UpdateMany(document.D{"n": document.D{"$lt": 10}}, document.D{"$inc": document.D{"n": 100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.C("m").Remove(document.D{"_id": "d20"}); err != nil {
		t.Fatal(err)
	}
	lines, head, err := src.ReplTail(0, 0)
	if err != nil || uint64(len(lines)) != head {
		t.Fatalf("tail: %d lines, head %d, err %v", len(lines), head, err)
	}
	want, err := src.C("m").FindAll(nil, &FindOpts{Sort: []string{"_id"}})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		dir := ""
		if round%2 == 1 {
			dir = t.TempDir()
		}
		dst, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		dst.EnableReplication(0)
		var wg sync.WaitGroup
		for _, batch := range [][][]byte{lines[:len(lines)*2/3], lines} {
			wg.Add(1)
			go func(batch [][]byte) {
				defer wg.Done()
				if _, _, torn, err := dst.ApplyReplEntries(batch); err != nil || torn {
					t.Errorf("apply: torn %v err %v", torn, err)
				}
			}(batch)
		}
		wg.Wait()
		if g := dst.ReplGen(); g != head {
			t.Fatalf("round %d: follower gen %d, want %d", round, g, head)
		}
		got, err := dst.C("m").FindAll(nil, &FindOpts{Sort: []string{"_id"}})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: follower has %d docs, source %d", round, len(got), len(want))
		}
		for i := range want {
			if !document.Equal(got[i], want[i]) {
				t.Fatalf("round %d: doc %d: follower %v, source %v", round, i, got[i], want[i])
			}
		}
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
