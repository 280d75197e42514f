package datastore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"matproj/internal/document"
)

// testdata/legacy_index_store is a durable store written by the last
// build that kept a hash index beside the ordered one. Its snapshot
// holds hash ({"path": p}) and ordered index creates; its journal adds,
// on top, a hash and an ordered create, a hash and an ordered
// create-then-drop pair, and a hash drop of a snapshot-held index.
// expected.json holds that build's index names (hash and ordered
// listed apart) and its answers to an equality, a $all and a range
// query, each of which it served from an index.

const legacyFixtureDir = "testdata/legacy_index_store"

type legacyExpectation struct {
	Collection string   `json:"collection"`
	Documents  int      `json:"documents"`
	Hash       []string `json:"hash"`
	Ordered    []string `json:"ordered"`
	Queries    []struct {
		Name   string          `json:"name"`
		Filter json.RawMessage `json:"filter"`
		IDs    []string        `json:"ids"`
	} `json:"queries"`
}

func loadLegacyExpectation(t *testing.T) legacyExpectation {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(legacyFixtureDir, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var exp legacyExpectation
	if err := json.Unmarshal(b, &exp); err != nil {
		t.Fatal(err)
	}
	return exp
}

// assertLegacyStore checks a store rebuilt from the fixture against the
// writing build's expectations: every index it listed (hash or ordered)
// exists under the same name, and each query is index-served and
// returns the same documents in the same order.
func assertLegacyStore(t *testing.T, s *Store, exp legacyExpectation) {
	t.Helper()
	c := s.C(exp.Collection)
	st := c.Stats()
	want := append(append([]string{}, exp.Hash...), exp.Ordered...)
	sort.Strings(want)
	if len(st.Indexes) != len(want) {
		t.Fatalf("indexes = %v, want %v", st.Indexes, want)
	}
	for i := range want {
		if st.Indexes[i] != want[i] {
			t.Fatalf("indexes = %v, want %v", st.Indexes, want)
		}
	}
	if st.Documents != exp.Documents {
		t.Fatalf("documents = %d, want %d", st.Documents, exp.Documents)
	}
	for _, q := range exp.Queries {
		filter, err := document.FromJSON(q.Filter)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := c.Explain(filter, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plan["mode"] != "index" {
			t.Errorf("%s query not index-served: %v", q.Name, plan)
		}
		docs, err := c.FindAll(filter, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(docs))
		for i, d := range docs {
			got[i] = d.GetString("_id")
		}
		if len(got) != len(q.IDs) {
			t.Fatalf("%s query ids = %v, want %v", q.Name, got, q.IDs)
		}
		for i := range got {
			if got[i] != q.IDs[i] {
				t.Fatalf("%s query ids = %v, want %v", q.Name, got, q.IDs)
			}
		}
	}
}

func TestLegacyIndexFixtureReplays(t *testing.T) {
	exp := loadLegacyExpectation(t)
	// Open may repair or rotate files, so it runs on a copy.
	dir := t.TempDir()
	for _, name := range []string{"snapshot.ndjson", "journal.ndjson"} {
		b, err := os.ReadFile(filepath.Join(legacyFixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assertLegacyStore(t, s, exp)
}

func TestLegacyIndexFixtureThroughReplApply(t *testing.T) {
	exp := loadLegacyExpectation(t)
	var lines [][]byte
	for _, name := range []string{"snapshot.ndjson", "journal.ndjson"} {
		b, err := os.ReadFile(filepath.Join(legacyFixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(b, []byte("\n")) {
			if len(line) > 0 {
				lines = append(lines, line)
			}
		}
	}
	s := MustOpenMemory()
	applied, _, torn, err := s.ApplyReplEntries(lines)
	if err != nil || torn {
		t.Fatalf("apply: applied=%d torn=%v err=%v", applied, torn, err)
	}
	assertLegacyStore(t, s, exp)
}
