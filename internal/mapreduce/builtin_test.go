package mapreduce

import (
	"fmt"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

func seedMRTasks(tb testing.TB, n int) *datastore.Collection {
	tb.Helper()
	c := datastore.MustOpenMemory().C("tasks")
	for i := 0; i < n; i++ {
		_, err := c.Insert(document.D{
			"_id":     fmt.Sprintf("t%05d", i),
			"mps_id":  fmt.Sprintf("mps-%03d", i%10),
			"energy":  -float64(i%7) - 1,
			"state":   "done",
			"version": int64(i % 3),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// bestEnergyMap/Reduce implement the paper's canonical MapReduce: group
// tasks by MPS identifier and pick the single "best" (lowest-energy)
// result per material.
func bestEnergyMap(d document.D, emit func(string, any)) {
	key := d.GetString("mps_id")
	if key == "" {
		return
	}
	e, _ := d.GetFloat("energy")
	emit(key, document.D{"energy": e, "task_id": d["_id"]})
}

func bestEnergyReduce(_ string, values []any) any {
	best := values[0].(map[string]any)
	for _, v := range values[1:] {
		m := v.(map[string]any)
		if me, _ := document.AsFloat(m["energy"]); func() bool {
			be, _ := document.AsFloat(best["energy"])
			return me < be
		}() {
			best = m
		}
	}
	return best
}

func TestBuiltinGroupsByKey(t *testing.T) {
	c := seedMRTasks(t, 100)
	res, err := Builtin(c, nil, bestEnergyMap, bestEnergyReduce)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("groups = %d, want 10", len(res))
	}
	// Sorted by key.
	for i := 1; i < len(res); i++ {
		if res[i-1]["_id"].(string) >= res[i]["_id"].(string) {
			t.Fatal("results not key-sorted")
		}
	}
	// Each group's value should be the minimal energy among its members.
	for _, r := range res {
		v := r.GetDoc("value")
		e, _ := document.AsFloat(v["energy"])
		if e > -1 || e < -7 {
			t.Errorf("group %v best energy = %v", r["_id"], e)
		}
	}
}

func TestBuiltinFilterAndSingleValueSkipsReduce(t *testing.T) {
	c := seedMRTasks(t, 30)
	reduceCalls := 0
	res, err := Builtin(c,
		document.D{"mps_id": "mps-003"},
		func(d document.D, emit func(string, any)) { emit(d["_id"].(string), int64(1)) },
		func(k string, vs []any) any { reduceCalls++; return int64(len(vs)) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("res = %d", len(res))
	}
	if reduceCalls != 0 {
		t.Errorf("reduce called %d times for singleton groups", reduceCalls)
	}
	for _, r := range res {
		if r["value"] != int64(1) {
			t.Errorf("value = %v", r["value"])
		}
	}
}

func TestBuiltinCountPerKey(t *testing.T) {
	c := seedMRTasks(t, 100)
	res, err := Builtin(c, nil,
		func(d document.D, emit func(string, any)) { emit(d.GetString("mps_id"), int64(1)) },
		func(_ string, vs []any) any {
			var sum int64
			for _, v := range vs {
				n, _ := v.(int64)
				sum += n
			}
			return sum
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r["value"] != int64(10) {
			t.Errorf("count for %v = %v, want 10", r["_id"], r["value"])
		}
	}
}

func TestBuiltinBadFilter(t *testing.T) {
	c := seedMRTasks(t, 5)
	if _, err := Builtin(c, document.D{"$bad": 1}, bestEnergyMap, bestEnergyReduce); err == nil {
		t.Error("want error")
	}
}
