package mapreduce_test

import (
	"fmt"
	"sort"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/dfs"
	"matproj/internal/document"
	"matproj/internal/mapreduce"
)

// sumInts adds integer values; a job that emits Go ints sees int64s.
func sumInts(_ string, vs []any) any {
	var n int64
	for _, v := range vs {
		i, _ := v.(int64)
		n += i
	}
	return n
}

// flattenSorted is the V&V reducer's shape: values are messages or
// lists of them (a combined group), flattened into one list, sorted so
// the list does not depend on the order groups were combined in.
func flattenSorted(_ string, vs []any) any {
	var msgs []string
	var flatten func(v any)
	flatten = func(v any) {
		switch x := v.(type) {
		case string:
			msgs = append(msgs, x)
		case []any:
			for _, e := range x {
				flatten(e)
			}
		}
	}
	flatten(vs)
	sort.Strings(msgs)
	out := make([]any, len(msgs))
	for i, m := range msgs {
		out[i] = m
	}
	return out
}

// TestEnginesAgree runs each job through the built-in baseline, the
// parallel engine at several worker counts, and the staged engine at
// two chunk sizes: every way of calling the engine must return the same
// documents, and first is the value the first group ("g000") must hold.
func TestEnginesAgree(t *testing.T) {
	store := datastore.MustOpenMemory()
	tasks := store.C("tasks")
	for i := 0; i < 100; i++ {
		if _, err := tasks.Insert(document.D{
			"_id":    fmt.Sprintf("t%05d", i),
			"group":  fmt.Sprintf("g%03d", i%10),
			"energy": -float64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := dfs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var sets []*dfs.StagedSet
	for _, chunkDocs := range []int{1, 32} {
		set, err := fs.Stage(store, "tasks", nil, fmt.Sprintf("c%d", chunkDocs), chunkDocs)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}

	jobs := []struct {
		name    string
		mapper  mapreduce.MapFunc
		reducer mapreduce.ReduceFunc
		first   any
	}{
		{"count emits Go int", func(d document.D, emit func(string, any)) {
			emit(d.GetString("group"), 1)
		}, sumInts, int64(10)},
		{"best energy emits document.D", func(d document.D, emit func(string, any)) {
			e, _ := d.GetFloat("energy")
			emit(d.GetString("group"), document.D{"energy": e, "task_id": d["_id"]})
		}, func(_ string, vs []any) any {
			best := vs[0].(map[string]any)
			for _, v := range vs[1:] {
				m := v.(map[string]any)
				if m["energy"].(float64) < best["energy"].(float64) {
					best = m
				}
			}
			return best
		}, map[string]any{"energy": -90.0, "task_id": "t00090"}},
		{"reducer returns Go int", func(d document.D, emit func(string, any)) {
			emit(d.GetString("group"), int64(1))
		}, func(k string, vs []any) any {
			return int(sumInts(k, vs).(int64))
		}, int64(10)},
		{"V&V multi-message reducer", func(d document.D, emit func(string, any)) {
			id := d["_id"].(string)
			emit(d.GetString("group"), id+": first")
			emit(d.GetString("group"), id+": second")
		}, flattenSorted, nil},
	}
	for _, job := range jobs {
		t.Run(job.name, func(t *testing.T) {
			want, err := mapreduce.Builtin(tasks, nil, job.mapper, job.reducer)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != 10 {
				t.Fatalf("builtin: %d groups, want 10", len(want))
			}
			if job.first != nil && !document.Equal(want[0]["value"], job.first) {
				t.Fatalf("builtin: %v = %v, want %v", want[0]["_id"], want[0]["value"], job.first)
			}
			same := func(engine string, got []document.D) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d groups, builtin %d", engine, len(got), len(want))
				}
				for i := range got {
					if !document.Equal(map[string]any(got[i]), map[string]any(want[i])) {
						t.Errorf("%s: group %d = %v, builtin %v", engine, i, got[i], want[i])
					}
				}
			}
			for _, workers := range []int{1, 2, 7} {
				got, err := mapreduce.RunCollection(tasks, nil, job.mapper, job.reducer, workers)
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("RunCollection workers=%d", workers), got)
			}
			for _, set := range sets {
				res, err := dfs.RunStaged(set, job.mapper, job.reducer, 3)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]document.D, len(res))
				for i, r := range res {
					got[i] = document.D{"_id": r.Key, "value": r.Value}
				}
				same("RunStaged "+set.Name, got)
			}
		})
	}
}
