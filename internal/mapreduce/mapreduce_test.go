package mapreduce

import (
	"fmt"
	"testing"
	"testing/quick"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

func countMap(d document.D, emit func(string, any)) {
	emit(d.GetString("group"), int64(1))
}

func sumReduce(_ string, vs []any) any {
	var sum int64
	for _, v := range vs {
		n, _ := v.(int64)
		sum += n
	}
	return sum
}

func makeDocs(n, groups int) []document.D {
	docs := make([]document.D, n)
	for i := range docs {
		docs[i] = document.D{
			"_id":   fmt.Sprintf("d%06d", i),
			"group": fmt.Sprintf("g%03d", i%groups),
			"val":   float64(i),
		}
	}
	return docs
}

func TestRunCountsPerGroup(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 7} {
		res := Run(makeDocs(1000, 10), countMap, sumReduce, workers)
		if len(res) != 10 {
			t.Fatalf("workers %d: groups = %d", workers, len(res))
		}
		for i, r := range res {
			if r.Value != int64(100) {
				t.Errorf("workers %d: %s = %v", workers, r.Key, r.Value)
			}
			if i > 0 && res[i-1].Key >= r.Key {
				t.Fatalf("workers %d: results not sorted", workers)
			}
		}
	}
}

func TestRunEmptyInput(t *testing.T) {
	if res := Run(nil, countMap, sumReduce, 0); res != nil {
		t.Errorf("res = %v", res)
	}
}

func TestRunSingleDocSkipsReduce(t *testing.T) {
	reduces := 0
	res := Run(makeDocs(1, 1), countMap, func(k string, vs []any) any {
		reduces++
		return sumReduce(k, vs)
	}, 2)
	if len(res) != 1 || res[0].Value != int64(1) {
		t.Fatalf("res = %v", res)
	}
	if reduces != 0 {
		t.Errorf("reduce called %d times on singleton", reduces)
	}
}

func TestParallelMatchesBuiltinEngine(t *testing.T) {
	s := datastore.MustOpenMemory()
	c := s.C("tasks")
	for i := 0; i < 500; i++ {
		c.Insert(document.D{
			"mps_id": fmt.Sprintf("mps-%03d", i%37),
			"energy": -float64(i%11) - 0.5,
		})
	}
	mapper := func(d document.D, emit func(string, any)) {
		e, _ := d.GetFloat("energy")
		emit(d.GetString("mps_id"), e)
	}
	reducer := func(_ string, vs []any) any {
		best, _ := document.AsFloat(vs[0])
		for _, v := range vs[1:] {
			f, _ := document.AsFloat(v)
			if f < best {
				best = f
			}
		}
		return best
	}
	builtin, err := Builtin(c, nil, mapper, reducer)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCollection(c, nil, mapper, reducer, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(builtin) != len(parallel) {
		t.Fatalf("builtin %d vs parallel %d groups", len(builtin), len(parallel))
	}
	for i := range builtin {
		if builtin[i]["_id"] != parallel[i]["_id"] {
			t.Fatalf("key mismatch at %d: %v vs %v", i, builtin[i]["_id"], parallel[i]["_id"])
		}
		if !document.Equal(builtin[i]["value"], parallel[i]["value"]) {
			t.Errorf("value mismatch for %v: %v vs %v", builtin[i]["_id"], builtin[i]["value"], parallel[i]["value"])
		}
	}
}

func TestRunCollectionBadFilter(t *testing.T) {
	s := datastore.MustOpenMemory()
	if _, err := RunCollection(s.C("x"), document.D{"$bad": 1}, countMap, sumReduce, 0); err == nil {
		t.Error("want error")
	}
}

func TestQuickParallelCountInvariant(t *testing.T) {
	f := func(raw []uint8, workers uint8) bool {
		if len(raw) == 0 {
			return true
		}
		docs := make([]document.D, len(raw))
		want := make(map[string]int64)
		for i, v := range raw {
			g := fmt.Sprintf("g%d", v%5)
			docs[i] = document.D{"group": g}
			want[g]++
		}
		res := Run(docs, countMap, sumReduce, int(workers%8)+1)
		if len(res) != len(want) {
			return false
		}
		for _, r := range res {
			if r.Value != want[r.Key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionOfStableAndBounded(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		for _, k := range []string{"", "a", "mps-001", "long-key-value"} {
			p := partitionOf(k, n)
			if p < 0 || p >= n {
				t.Errorf("partitionOf(%q, %d) = %d", k, n, p)
			}
			if p != partitionOf(k, n) {
				t.Error("partition not stable")
			}
		}
	}
}
