package datastore

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"matproj/internal/document"
)

func seedAgg(t *testing.T) *Collection {
	t.Helper()
	c := MustOpenMemory().C("materials")
	rows := []string{
		`{"_id": "m1", "formula": "LiFePO4", "elements": ["Li","Fe","P","O"], "band_gap": 3.4, "e_per_atom": -1.7, "nsites": 7}`,
		`{"_id": "m2", "formula": "LiCoO2",  "elements": ["Li","Co","O"],     "band_gap": 2.1, "e_per_atom": -1.9, "nsites": 4}`,
		`{"_id": "m3", "formula": "Fe2O3",   "elements": ["Fe","O"],          "band_gap": 2.0, "e_per_atom": -1.6, "nsites": 5}`,
		`{"_id": "m4", "formula": "Fe3O4",   "elements": ["Fe","O"],          "band_gap": 0.1, "e_per_atom": -1.5, "nsites": 7}`,
		`{"_id": "m5", "formula": "NaCl",    "elements": ["Cl","Na"],         "band_gap": 5.0, "e_per_atom": -1.4, "nsites": 2}`,
	}
	for _, r := range rows {
		if _, err := c.Insert(doc(r)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestAggregateMatchSortLimit(t *testing.T) {
	c := seedAgg(t)
	out, err := c.Aggregate([]document.D{
		{"$match": doc(`{"band_gap": {"$gte": 2.0}}`)},
		{"$sort": doc(`{"band_gap": -1}`)},
		{"$limit": int64(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0]["_id"] != "m5" || out[1]["_id"] != "m1" {
		t.Errorf("out = %v", out)
	}
}

func TestAggregateGroupAccumulators(t *testing.T) {
	c := seedAgg(t)
	out, err := c.Aggregate([]document.D{
		{"$unwind": "$elements"},
		{"$group": doc(`{
			"_id": "$elements",
			"n": {"$sum": 1},
			"avg_gap": {"$avg": "$band_gap"},
			"best_e": {"$min": "$e_per_atom"},
			"worst_e": {"$max": "$e_per_atom"},
			"formulas": {"$push": "$formula"}
		}`)},
		{"$sort": doc(`{"_id": 1}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Elements: Cl, Co, Fe, Li, Na, O, P -> 7 groups.
	if len(out) != 7 {
		t.Fatalf("groups = %d: %v", len(out), out)
	}
	var fe document.D
	for _, g := range out {
		if g["_id"] == "Fe" {
			fe = g
		}
	}
	if fe == nil {
		t.Fatal("no Fe group")
	}
	if fe["n"] != int64(3) {
		t.Errorf("Fe n = %v", fe["n"])
	}
	if v, _ := fe.GetFloat("avg_gap"); math.Abs(v-(3.4+2.0+0.1)/3) > 1e-9 {
		t.Errorf("Fe avg_gap = %v", v)
	}
	if v, _ := fe.GetFloat("best_e"); v != -1.7 {
		t.Errorf("Fe best_e = %v", v)
	}
	if v, _ := fe.GetFloat("worst_e"); v != -1.5 {
		t.Errorf("Fe worst_e = %v", v)
	}
	if len(fe.GetArray("formulas")) != 3 {
		t.Errorf("Fe formulas = %v", fe.GetArray("formulas"))
	}
}

func TestAggregateGroupConstantKeyAndAddToSet(t *testing.T) {
	c := seedAgg(t)
	out, err := c.Aggregate([]document.D{
		{"$unwind": "$elements"},
		{"$group": doc(`{"_id": null, "all_elements": {"$addToSet": "$elements"}, "rows": {"$count": {}}}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if got := len(out[0].GetArray("all_elements")); got != 7 {
		t.Errorf("distinct elements = %d", got)
	}
	if out[0]["rows"] != int64(13) { // total element mentions: 4+3+2+2+2
		t.Errorf("rows = %v", out[0]["rows"])
	}
}

func TestAggregateProjectComputed(t *testing.T) {
	c := seedAgg(t)
	out, err := c.Aggregate([]document.D{
		{"$match": doc(`{"_id": "m1"}`)},
		{"$project": doc(`{
			"formula": 1,
			"gap_mev": {"$multiply": ["$band_gap", 1000]},
			"total_e": {"$multiply": ["$e_per_atom", "$nsites"]},
			"label": {"$concat": ["mat:", "$formula"]},
			"nel": {"$size": "$elements"},
			"absdiff": {"$abs": {"$subtract": ["$band_gap", 5]}}
		}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	d0 := out[0]
	if d0["formula"] != "LiFePO4" || d0["_id"] != "m1" {
		t.Errorf("doc = %v", d0)
	}
	if v, _ := d0.GetFloat("gap_mev"); v != 3400 {
		t.Errorf("gap_mev = %v", v)
	}
	if v, _ := d0.GetFloat("total_e"); math.Abs(v-(-1.7*7)) > 1e-9 {
		t.Errorf("total_e = %v", v)
	}
	if d0["label"] != "mat:LiFePO4" {
		t.Errorf("label = %v", d0["label"])
	}
	if d0["nel"] != int64(4) {
		t.Errorf("nel = %v", d0["nel"])
	}
	if v, _ := d0.GetFloat("absdiff"); math.Abs(v-1.6) > 1e-9 {
		t.Errorf("absdiff = %v", v)
	}
}

func TestAggregateSkipCountFirstLast(t *testing.T) {
	c := seedAgg(t)
	out, err := c.Aggregate([]document.D{
		{"$sort": doc(`{"band_gap": 1}`)},
		{"$skip": int64(1)},
		{"$count": "remaining"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0]["remaining"] != int64(4) {
		t.Errorf("remaining = %v", out[0]["remaining"])
	}
	fl, err := c.Aggregate([]document.D{
		{"$sort": doc(`{"band_gap": 1}`)},
		{"$group": doc(`{"_id": null, "lowest": {"$first": "$formula"}, "highest": {"$last": "$formula"}}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fl[0]["lowest"] != "Fe3O4" || fl[0]["highest"] != "NaCl" {
		t.Errorf("first/last = %v", fl[0])
	}
}

func TestAggregateUnwindBehaviour(t *testing.T) {
	c := MustOpenMemory().C("x")
	c.Insert(doc(`{"_id": "a", "tags": ["p", "q"]}`))
	c.Insert(doc(`{"_id": "b", "tags": "scalar"}`))
	c.Insert(doc(`{"_id": "c"}`)) // missing field drops
	out, err := c.Aggregate([]document.D{{"$unwind": "$tags"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 { // a×2 + b×1
		t.Fatalf("out = %v", out)
	}
}

func TestAggregateHeadMatchUsesIndexPath(t *testing.T) {
	c := seedAgg(t)
	c.EnsureOrderedIndex("elements")
	out, err := c.Aggregate([]document.D{
		{"$match": doc(`{"elements": "Fe"}`)},
		{"$count": "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0]["n"] != int64(3) {
		t.Errorf("n = %v", out[0]["n"])
	}
}

func TestAggregateErrors(t *testing.T) {
	c := seedAgg(t)
	bad := [][]document.D{
		{{"$bogus": doc(`{}`)}},
		{{"$match": doc(`{}`), "$sort": doc(`{}`)}}, // two ops in one stage
		{{"$match": "notadoc"}},
		{{"$sort": doc(`{"x": 2}`)}},
		{{"$limit": "x"}},
		{{"$limit": int64(-1)}},
		{{"$skip": "x"}},
		{{"$unwind": 3}},
		{{"$unwind": "noDollar"}},
		{{"$count": int64(3)}},
		{{"$group": doc(`{"n": {"$sum": 1}}`)}}, // missing _id
		{{"$group": doc(`{"_id": null, "n": {"$bogus": 1}}`)}},
		{{"$group": doc(`{"_id": null, "n": 3}`)}},
		{{"$project": doc(`{"x": {"$divide": ["$band_gap", 0]}}`)}},
		{{"$project": doc(`{"x": {"$divide": ["$band_gap"]}}`)}},
		{{"$project": doc(`{"x": {"$bogus": 1}}`)}},
		{{"$project": doc(`{"x": {"$size": "$formula"}}`)}},
		{{"$project": doc(`{"x": {"$concat": ["$band_gap"]}}`)}},
		{{"$project": doc(`{"x": "plainstring"}`)}},
		{{"$project": doc(`{"x": {"$add": ["$formula", 1]}}`)}},
	}
	for i, p := range bad {
		if _, err := c.Aggregate(p); err == nil {
			t.Errorf("pipeline %d accepted: %v", i, p)
		}
	}
}

func TestAggregateLiteralAndSumFloat(t *testing.T) {
	c := seedAgg(t)
	out, err := c.Aggregate([]document.D{
		{"$group": doc(`{"_id": null, "total_gap": {"$sum": "$band_gap"}}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out[0].GetFloat("total_gap"); math.Abs(v-12.6) > 1e-9 {
		t.Errorf("total_gap = %v", v)
	}
	lit, err := c.Aggregate([]document.D{
		{"$limit": int64(1)},
		{"$project": document.D{"tag": document.D{"$literal": "fixed"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lit[0]["tag"] != "fixed" {
		t.Errorf("literal = %v", lit[0])
	}
}

// TestAggregateSumOutsideInt64Range: an integral $sum converts to int64
// only when it fits. 1e300+1e300 and 9.3e18 are integral floats beyond
// int64, and must come back as float64, not as a wrapped int64.
func TestAggregateSumOutsideInt64Range(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{1e300, 1e300}, 2e300},
		{[]float64{9.3e18}, 9.3e18},
		{[]float64{-9.3e18}, -9.3e18},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
	} {
		c := MustOpenMemory().C("sums")
		for _, v := range tc.vals {
			if _, err := c.Insert(document.D{"v": v}); err != nil {
				t.Fatal(err)
			}
		}
		out, err := c.Aggregate([]document.D{{"$group": doc(`{"_id": null, "s": {"$sum": "$v"}}`)}})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := out[0]["s"].(float64); !ok || got != tc.want {
			t.Errorf("$sum over %v = %v (%T), want float64 %v", tc.vals, out[0]["s"], out[0]["s"], tc.want)
		}
	}
	// Sums inside int64 range keep their integer type.
	c := MustOpenMemory().C("ints")
	for _, v := range []int64{1 << 62, 1 << 61} {
		if _, err := c.Insert(document.D{"v": v}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := c.Aggregate([]document.D{{"$group": doc(`{"_id": null, "s": {"$sum": "$v"}}`)}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := out[0]["s"].(int64); !ok || got != 1<<62+1<<61 {
		t.Errorf("$sum of int64s = %v (%T), want int64 %d", out[0]["s"], out[0]["s"], int64(1<<62+1<<61))
	}
}

// The paper's canonical materials-build query expressed as an aggregation:
// group tasks by structure and keep the best energy.
func TestAggregateBestTaskPerMaterial(t *testing.T) {
	c := MustOpenMemory().C("tasks")
	rows := []string{
		`{"sid": "s1", "energy": -7.0}`,
		`{"sid": "s1", "energy": -9.0}`,
		`{"sid": "s2", "energy": -3.0}`,
	}
	for _, r := range rows {
		c.Insert(doc(r))
	}
	out, err := c.Aggregate([]document.D{
		{"$group": doc(`{"_id": "$sid", "best": {"$min": "$energy"}}`)},
		{"$sort": doc(`{"_id": 1}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0]["best"] != -9.0 || out[1]["best"] != -3.0 {
		t.Errorf("out = %v", out)
	}
}

func TestQuickGroupSumEqualsCount(t *testing.T) {
	f := func(groups []uint8) bool {
		c := MustOpenMemory().C("q")
		for _, g := range groups {
			c.Insert(document.D{"g": fmt.Sprintf("g%d", g%5)})
		}
		out, err := c.Aggregate([]document.D{
			{"$group": document.D{"_id": "$g", "n": document.D{"$sum": int64(1)}}},
		})
		if err != nil {
			return false
		}
		var total int64
		for _, row := range out {
			n, _ := row.GetInt("n")
			total += n
		}
		return total == int64(len(groups))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchThenCountAgreesWithCount(t *testing.T) {
	f := func(vals []int16, pivot int16) bool {
		c := MustOpenMemory().C("q")
		for _, v := range vals {
			c.Insert(document.D{"v": int64(v)})
		}
		filter := document.D{"v": document.D{"$gte": int64(pivot)}}
		want, err := c.Count(filter)
		if err != nil {
			return false
		}
		out, err := c.Aggregate([]document.D{
			{"$match": filter},
			{"$count": "n"},
		})
		if err != nil {
			return false
		}
		if len(out) == 0 {
			return want == 0
		}
		got, _ := out[0].GetInt("n")
		return int(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
