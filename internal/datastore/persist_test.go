package datastore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"matproj/internal/document"
)

func TestJournalReplayRestoresStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.C("mps")
	id, _ := c.Insert(doc(`{"formula": "Fe2O3", "nsites": 10}`))
	c.Insert(doc(`{"_id": "keep", "v": 1}`))
	c.Insert(doc(`{"_id": "gone", "v": 2}`))
	c.UpdateOne(doc(`{"_id": "keep"}`), doc(`{"$set": {"v": 42}}`))
	c.RemoveID("gone")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2 := s2.C("mps")
	n, _ := c2.Count(nil)
	if n != 2 {
		t.Fatalf("count after replay = %d", n)
	}
	got, err := c2.FindID(id)
	if err != nil || got["formula"] != "Fe2O3" {
		t.Errorf("doc = %v err = %v", got, err)
	}
	kept, _ := c2.FindID("keep")
	if kept["v"] != int64(42) {
		t.Errorf("update not replayed: %v", kept["v"])
	}
	if _, err := c2.FindID("gone"); !errors.Is(err, ErrNotFound) {
		t.Error("remove not replayed")
	}
}

func TestSnapshotTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	c := s.C("x")
	for i := 0; i < 50; i++ {
		c.Insert(document.D{"n": int64(i)})
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	jinfo, err := os.Stat(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if jinfo.Size() != 0 {
		t.Errorf("journal size after snapshot = %d", jinfo.Size())
	}
	// Writes after snapshot land in the journal and replay on top.
	c.Insert(doc(`{"_id": "post", "n": 999}`))
	s.Close()

	s2, _ := Open(dir)
	defer s2.Close()
	n, _ := s2.C("x").Count(nil)
	if n != 51 {
		t.Errorf("count = %d, want 51", n)
	}
	if _, err := s2.C("x").FindID("post"); err != nil {
		t.Errorf("post-snapshot doc lost: %v", err)
	}
}

func TestDropCollectionPersisted(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.C("temp").Insert(doc(`{"v": 1}`))
	s.C("keep").Insert(doc(`{"v": 2}`))
	s.DropCollection("temp")
	s.Close()

	s2, _ := Open(dir)
	defer s2.Close()
	for _, name := range s2.Collections() {
		if name == "temp" {
			t.Error("dropped collection resurrected")
		}
	}
	n, _ := s2.C("keep").Count(nil)
	if n != 1 {
		t.Errorf("keep count = %d", n)
	}
}

func TestMemoryStoreSnapshotNoop(t *testing.T) {
	s := MustOpenMemory()
	if err := s.Snapshot(); err != nil {
		t.Errorf("memory snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestReplayCorruptJournalTailRepaired(t *testing.T) {
	// A malformed final line with nothing valid after it is a torn
	// tail: replay truncates it and the store opens.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail should be repaired, got %v", err)
	}
	rec := s.Recovery()
	if !rec.Repaired || rec.DroppedRecords != 1 {
		t.Errorf("recovery stats: %+v", rec)
	}
	s.Close()
	data, _ := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if len(data) != 0 {
		t.Errorf("journal not truncated: %q", data)
	}

	// A record that decodes but carries an unknown op is real
	// corruption, not a torn write: still an error.
	os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte(`{"op":"zz","c":"x"}`+"\n"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("unknown op: want error")
	}
}

func TestReplayEmptyLinesTolerated(t *testing.T) {
	dir := t.TempDir()
	content := `{"op":"i","c":"x","id":"a","doc":{"v":1}}` + "\n\n" + `{"op":"i","c":"x","id":"b","doc":{"v":2}}` + "\n"
	os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte(content), 0o644)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n, _ := s.C("x").Count(nil)
	if n != 2 {
		t.Errorf("count = %d", n)
	}
}

func TestReplayUpdateForUnknownIDInserts(t *testing.T) {
	// An update record for an id missing from the snapshot (possible after
	// journal truncation edge cases) must still materialize the document.
	dir := t.TempDir()
	content := `{"op":"u","c":"x","id":"a","doc":{"_id":"a","v":9}}` + "\n"
	os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte(content), 0o644)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.C("x").FindID("a")
	if err != nil || got["v"] != int64(9) {
		t.Errorf("got %v err %v", got, err)
	}
}

// TestCloseReleasesStoreLockBeforeJournalClose is the regression test
// for an AB/BA deadlock: Close used to hold s.mu while journal.close
// took j.mu, while journal.snapshot holds j.mu and read-locks s.mu. The
// fixed Close detaches the journal under s.mu and closes it outside, so
// the store lock must be observably free while Close waits on j.mu.
func TestCloseReleasesStoreLockBeforeJournalClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := s.journal.Load()
	if j == nil {
		t.Fatal("journaled store expected")
	}

	j.mu.Lock() // stand in for a concurrent snapshot holding the journal lock
	done := make(chan error, 1)
	go func() { done <- s.Close() }()

	detached := false
	for i := 0; i < 2000 && !detached; i++ {
		if s.mu.TryRLock() {
			detached = s.journal.Load() == nil
			s.mu.RUnlock()
		}
		if !detached {
			time.Sleep(time.Millisecond)
		}
	}
	j.mu.Unlock()
	if !detached {
		<-done
		t.Fatal("Close still holds s.mu while waiting on the journal lock; concurrent Snapshot would deadlock")
	}
	if err := <-done; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestWriteAfterCloseFailsAndReadsWork: a closed durable store used to
// take the memory path for later writes and acknowledge them with a nil
// error, though no journal recorded them. Every mutator now fails with
// ErrClosed before applying, reads still answer, and a reopen finds only
// what was written before Close.
func TestWriteAfterCloseFailsAndReadsWork(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.C("m")
	if _, err := c.Insert(document.D{"_id": "a", "v": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(document.D{"_id": "b"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after Close: err = %v, want ErrClosed", err)
	}
	writes := map[string]func() error{
		"insertMany": func() error { _, err := c.InsertMany([]document.D{{"_id": "c"}}); return err },
		"updateMany": func() error {
			_, err := c.UpdateMany(nil, document.D{"$set": document.D{"v": int64(2)}})
			return err
		},
		"upsert": func() error {
			_, err := c.Upsert(document.D{"_id": "d"}, document.D{"$set": document.D{"v": int64(3)}})
			return err
		},
		"findAndModify": func() error {
			_, err := c.FindAndModify(nil, document.D{"$set": document.D{"v": int64(4)}}, nil, true)
			return err
		},
		"remove":    func() error { _, err := c.Remove(nil); return err },
		"removeID":  func() error { return c.RemoveID("a") },
		"bulkWrite": func() error { _, err := c.BulkWrite([]BulkOp{{Op: BulkDelete, Filter: document.D{}}}); return err },
		"newCollection": func() error {
			_, err := s.C("fresh").Insert(document.D{"_id": "e"})
			return err
		},
		"replApply": func() error { _, _, _, err := s.ApplyReplEntries(nil); return err },
		"replReset": func() error { return s.ReplReset(nil, 0) },
	}
	for name, w := range writes {
		if err := w(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", name, err)
		}
	}
	c.EnsureOrderedIndex("v")
	if got := c.Stats().Indexes; len(got) != 0 {
		t.Errorf("index created on a closed store: %v", got)
	}
	docs, err := c.FindAll(nil, nil)
	if err != nil || len(docs) != 1 || docs[0]["v"] != int64(1) {
		t.Fatalf("read after Close = %v (err %v), want the one document as written", docs, err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.C("m").Count(nil); n != 1 {
		t.Fatalf("reopened store holds %d documents, want 1", n)
	}
	if got := s2.Collections(); len(got) != 1 {
		t.Fatalf("reopened store collections = %v, want [m]", got)
	}
}

// TestDetachedJournalFailsFrames: a frame that reaches a journal after
// close resolves with ErrClosed, never with success.
func TestDetachedJournalFailsFrames(t *testing.T) {
	j, err := openAppend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	tk := j.stageWrite("m", journalInsert, "x", document.D{"_id": "x"})
	if err := j.commit(tk); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit on a closed journal: err = %v, want ErrClosed", err)
	}
}
