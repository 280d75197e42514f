package dfs

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/mapreduce"
)

func seedStore(t *testing.T, n int) *datastore.Store {
	t.Helper()
	store := datastore.MustOpenMemory()
	tasks := store.C("tasks")
	for i := 0; i < n; i++ {
		_, err := tasks.Insert(document.D{
			"_id":    fmt.Sprintf("t%05d", i),
			"group":  fmt.Sprintf("g%02d", i%7),
			"energy": -float64(i%13) - 1,
			"state":  "successful",
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func countMap(d document.D, emit func(string, any)) { emit(d.GetString("group"), int64(1)) }
func sumReduce(_ string, vs []any) any {
	var n int64
	for _, v := range vs {
		i, _ := v.(int64)
		n += i
	}
	return n
}

func TestStageWritesChunksAndRef(t *testing.T) {
	store := seedStore(t, 105)
	fs, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set, err := fs.Stage(store, "tasks", nil, "tasks-v1", 25)
	if err != nil {
		t.Fatal(err)
	}
	if set.Docs != 105 {
		t.Errorf("docs = %d", set.Docs)
	}
	if len(set.Chunks) != 5 { // 25*4 + 5
		t.Errorf("chunks = %d", len(set.Chunks))
	}
	for _, c := range set.Chunks {
		if _, err := os.Stat(c); err != nil {
			t.Errorf("chunk missing: %v", err)
		}
	}
	// The reference lives in the store, as §IV-B2 requires.
	ref, err := store.C(RefsCollection).FindID("dfsref-tasks-v1")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ref.GetInt("docs"); n != 105 {
		t.Errorf("ref docs = %d", n)
	}
	// LoadRef round trip.
	loaded, err := LoadRef(store, "tasks-v1")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Docs != 105 || len(loaded.Chunks) != 5 {
		t.Errorf("loaded = %+v", loaded)
	}
	if _, err := LoadRef(store, "ghost"); err == nil {
		t.Error("missing ref accepted")
	}
}

func TestStageWithFilterAndRestage(t *testing.T) {
	store := seedStore(t, 70)
	fs, _ := Open(t.TempDir())
	set, err := fs.Stage(store, "tasks", document.D{"group": "g01"}, "g01", 0)
	if err != nil {
		t.Fatal(err)
	}
	if set.Docs != 10 {
		t.Errorf("filtered docs = %d", set.Docs)
	}
	// Restaging under the same name replaces the reference.
	set2, err := fs.Stage(store, "tasks", nil, "g01", 50)
	if err != nil {
		t.Fatal(err)
	}
	if set2.Docs != 70 {
		t.Errorf("restage docs = %d", set2.Docs)
	}
	n, _ := store.C(RefsCollection).Count(nil)
	if n != 1 {
		t.Errorf("refs = %d", n)
	}
}

func TestReadChunkRoundTrip(t *testing.T) {
	store := seedStore(t, 30)
	fs, _ := Open(t.TempDir())
	set, _ := fs.Stage(store, "tasks", nil, "rt", 8)
	total := 0
	for _, c := range set.Chunks {
		docs, err := ReadChunk(c)
		if err != nil {
			t.Fatal(err)
		}
		total += len(docs)
		for _, d := range docs {
			if !d.Has("group") || !d.Has("energy") {
				t.Errorf("doc lost fields: %v", d)
			}
			// Integer fidelity through NDJSON.
			if _, ok := d.Get("_id"); !ok {
				t.Error("_id lost")
			}
		}
	}
	if total != 30 {
		t.Errorf("total = %d", total)
	}
	if _, err := ReadChunk(filepath.Join(fs.Root, "nope.ndjson")); err == nil {
		t.Error("missing chunk accepted")
	}
}

func TestRunStagedMatchesDirectEngines(t *testing.T) {
	store := seedStore(t, 200)
	fs, _ := Open(t.TempDir())
	set, _ := fs.Stage(store, "tasks", nil, "cmp", 32)

	staged, err := RunStaged(set, countMap, sumReduce, 4)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := mapreduce.RunCollection(store.C("tasks"), nil, countMap, sumReduce, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) != len(direct) {
		t.Fatalf("staged %d vs direct %d groups", len(staged), len(direct))
	}
	for i := range staged {
		if staged[i].Key != direct[i]["_id"] {
			t.Fatalf("key mismatch at %d", i)
		}
		if !document.Equal(staged[i].Value, direct[i]["value"]) {
			t.Errorf("value mismatch for %s: %v vs %v", staged[i].Key, staged[i].Value, direct[i]["value"])
		}
	}
}

func TestRunStagedMinEnergy(t *testing.T) {
	store := seedStore(t, 100)
	fs, _ := Open(t.TempDir())
	set, _ := fs.Stage(store, "tasks", nil, "min", 16)
	res, err := RunStaged(set,
		func(d document.D, emit func(string, any)) {
			e, _ := d.GetFloat("energy")
			emit(d.GetString("group"), e)
		},
		func(_ string, vs []any) any {
			best, _ := document.AsFloat(vs[0])
			for _, v := range vs[1:] {
				if f, _ := document.AsFloat(v); f < best {
					best = f
				}
			}
			return best
		}, 0) // 0 workers means GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 7 {
		t.Fatalf("groups = %d", len(res))
	}
	for _, r := range res {
		f, _ := document.AsFloat(r.Value)
		if f > -1 || f < -13 {
			t.Errorf("%s min = %v", r.Key, r.Value)
		}
	}
}

func TestRunStagedCorruptChunk(t *testing.T) {
	store := seedStore(t, 10)
	fs, _ := Open(t.TempDir())
	set, _ := fs.Stage(store, "tasks", nil, "bad", 5)
	os.WriteFile(set.Chunks[0], []byte("{broken\n"), 0o644)
	if _, err := RunStaged(set, countMap, sumReduce, 2); err == nil {
		t.Error("corrupt chunk accepted")
	}
}

func TestOpenBadRoot(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	os.WriteFile(f, []byte("x"), 0o644)
	if _, err := Open(filepath.Join(f, "sub")); err == nil {
		t.Error("root under a file accepted")
	}
}
