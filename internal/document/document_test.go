package document

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFromJSONNormalizesNumbers(t *testing.T) {
	d, err := FromJSON([]byte(`{"a": 3, "b": 3.5, "c": "x", "d": true, "e": null}`))
	if err != nil {
		t.Fatalf("FromJSON: %v", err)
	}
	if v, _ := d.Get("a"); v != int64(3) {
		t.Errorf("a = %v (%T), want int64(3)", v, v)
	}
	if v, _ := d.Get("b"); v != 3.5 {
		t.Errorf("b = %v, want 3.5", v)
	}
	if v, _ := d.Get("c"); v != "x" {
		t.Errorf("c = %v, want x", v)
	}
	if v, _ := d.Get("d"); v != true {
		t.Errorf("d = %v, want true", v)
	}
	if v, ok := d.Get("e"); !ok || v != nil {
		t.Errorf("e = %v ok=%v, want nil present", v, ok)
	}
}

func TestFromJSONRejectsNonObject(t *testing.T) {
	if _, err := FromJSON([]byte(`[1,2,3]`)); err == nil {
		t.Error("FromJSON of array: want error, got nil")
	}
	if _, err := FromJSON([]byte(`{bad`)); err == nil {
		t.Error("FromJSON of malformed input: want error, got nil")
	}
	// FromJSON takes exactly one object, as ParseJSON does: trailing
	// bytes and null are errors (a json.Decoder read the first value,
	// ignored the rest, and turned null into an empty document).
	if _, err := FromJSON([]byte(`{"a": 1} {"b": 2}`)); err == nil {
		t.Error("FromJSON with trailing bytes: want error, got nil")
	}
	if _, err := FromJSON([]byte(`null`)); err == nil {
		t.Error("FromJSON of null: want error, got nil")
	}
}

// TestUnmarshalJSONFieldsAreCanonical checks that encoding/json decodes
// D and []D fields through ParseJSON: integers keep every digit as
// int64, null gives a nil document, and a non-object is an error.
func TestUnmarshalJSONFieldsAreCanonical(t *testing.T) {
	var req struct {
		Doc    D   `json:"doc"`
		Docs   []D `json:"docs"`
		Filter D   `json:"filter"`
	}
	body := `{"doc": {"n": 9007199254740993, "f": 2.5, "sub": {"k": [1, 2.0]}}, "docs": [{"i": 3}, null], "filter": null}`
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	want := D{"n": int64(9007199254740993), "f": 2.5, "sub": map[string]any{"k": []any{int64(1), 2.0}}}
	if !reflect.DeepEqual(req.Doc, want) {
		t.Errorf("doc = %#v, want %#v", req.Doc, want)
	}
	if len(req.Docs) != 2 || !reflect.DeepEqual(req.Docs[0], D{"i": int64(3)}) || req.Docs[1] != nil {
		t.Errorf("docs = %#v", req.Docs)
	}
	if req.Filter != nil {
		t.Errorf("null filter = %#v, want nil", req.Filter)
	}
	for _, bad := range []string{`{"doc": [1]}`, `{"doc": 5}`, `{"docs": ["x"]}`} {
		if err := json.Unmarshal([]byte(bad), &req); err == nil {
			t.Errorf("%s: want error, got nil", bad)
		}
	}
}

func TestNormalizeWidensIntegerTypes(t *testing.T) {
	cases := []struct {
		in   any
		want any
	}{
		{int(7), int64(7)},
		{int8(7), int64(7)},
		{int16(7), int64(7)},
		{int32(7), int64(7)},
		{uint(7), int64(7)},
		{uint8(7), int64(7)},
		{uint16(7), int64(7)},
		{uint32(7), int64(7)},
		{uint64(7), int64(7)},
		{float32(1.5), float64(1.5)},
		{uint64(math.MaxUint64), float64(math.MaxUint64)},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%v %T) = %v (%T), want %v (%T)", c.in, c.in, got, got, c.want, c.want)
		}
	}
}

func TestNormalizeSliceVariants(t *testing.T) {
	got := Normalize(D{"ints": []int{1, 2}, "strs": []string{"a"}, "floats": []float64{0.5}, "docs": []D{{"k": 1}}})
	m := got.(map[string]any)
	if !reflect.DeepEqual(m["ints"], []any{int64(1), int64(2)}) {
		t.Errorf("ints = %#v", m["ints"])
	}
	if !reflect.DeepEqual(m["strs"], []any{"a"}) {
		t.Errorf("strs = %#v", m["strs"])
	}
	if !reflect.DeepEqual(m["floats"], []any{0.5}) {
		t.Errorf("floats = %#v", m["floats"])
	}
	inner := m["docs"].([]any)[0].(map[string]any)
	if inner["k"] != int64(1) {
		t.Errorf("docs.0.k = %v (%T)", inner["k"], inner["k"])
	}
}

func TestNormalizeStructFallback(t *testing.T) {
	type point struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	}
	got := Normalize(point{X: 1, Y: 2.5})
	m, ok := got.(map[string]any)
	if !ok {
		t.Fatalf("Normalize(struct) = %T, want map", got)
	}
	if m["x"] != int64(1) || m["y"] != 2.5 {
		t.Errorf("normalized struct = %#v", m)
	}
}

func TestGetDottedPaths(t *testing.T) {
	d := MustFromJSON(`{"output": {"final_energy": -12.5, "bands": [[0.1, 0.2], [0.3]]}, "elements": ["Li", "Fe", "O"]}`)
	if v, ok := d.Get("output.final_energy"); !ok || v != -12.5 {
		t.Errorf("output.final_energy = %v ok=%v", v, ok)
	}
	if v, ok := d.Get("elements.1"); !ok || v != "Fe" {
		t.Errorf("elements.1 = %v ok=%v", v, ok)
	}
	if v, ok := d.Get("output.bands.0.1"); !ok || v != 0.2 {
		t.Errorf("output.bands.0.1 = %v ok=%v", v, ok)
	}
	if _, ok := d.Get("output.missing"); ok {
		t.Error("output.missing resolved, want miss")
	}
	if _, ok := d.Get("elements.9"); ok {
		t.Error("elements.9 resolved, want miss")
	}
	if _, ok := d.Get("elements.x"); ok {
		t.Error("elements.x resolved, want miss")
	}
	if _, ok := d.Get("output.final_energy.deep"); ok {
		t.Error("descend through scalar resolved, want miss")
	}
}

func TestGetTypedAccessors(t *testing.T) {
	d := MustFromJSON(`{"s": "str", "i": 4, "f": 2.5, "arr": [1], "doc": {"k": 1}}`)
	if d.GetString("s") != "str" {
		t.Errorf("GetString(s) = %q", d.GetString("s"))
	}
	if d.GetString("i") != "" {
		t.Errorf("GetString(i) = %q, want empty", d.GetString("i"))
	}
	if f, ok := d.GetFloat("i"); !ok || f != 4 {
		t.Errorf("GetFloat(i) = %v,%v", f, ok)
	}
	if f, ok := d.GetFloat("f"); !ok || f != 2.5 {
		t.Errorf("GetFloat(f) = %v,%v", f, ok)
	}
	if _, ok := d.GetFloat("s"); ok {
		t.Error("GetFloat(s) resolved, want miss")
	}
	if i, ok := d.GetInt("i"); !ok || i != 4 {
		t.Errorf("GetInt(i) = %v,%v", i, ok)
	}
	if _, ok := d.GetInt("f"); ok {
		t.Error("GetInt(2.5) resolved, want miss")
	}
	if a := d.GetArray("arr"); len(a) != 1 {
		t.Errorf("GetArray(arr) = %v", a)
	}
	if d.GetArray("doc") != nil {
		t.Error("GetArray(doc) non-nil")
	}
	if sub := d.GetDoc("doc"); sub == nil || sub["k"] != int64(1) {
		t.Errorf("GetDoc(doc) = %v", sub)
	}
	if d.GetDoc("arr") != nil {
		t.Error("GetDoc(arr) non-nil")
	}
}

func TestGetIntFromIntegralFloat(t *testing.T) {
	d := D{"n": 3.0}
	if i, ok := d.GetInt("n"); !ok || i != 3 {
		t.Errorf("GetInt(3.0) = %v,%v; want 3,true", i, ok)
	}
}

func TestSetCreatesIntermediates(t *testing.T) {
	d := New()
	if err := d.Set("a.b.c", 42); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v, ok := d.Get("a.b.c"); !ok || v != int64(42) {
		t.Errorf("a.b.c = %v ok=%v", v, ok)
	}
}

func TestSetIntoArray(t *testing.T) {
	d := MustFromJSON(`{"arr": [{"x": 1}, {"x": 2}]}`)
	if err := d.Set("arr.1.x", 99); err != nil {
		t.Fatalf("Set arr.1.x: %v", err)
	}
	if v, _ := d.Get("arr.1.x"); v != int64(99) {
		t.Errorf("arr.1.x = %v", v)
	}
	// Appending one past the end.
	if err := d.Set("arr.2", "tail"); err != nil {
		t.Fatalf("Set arr.2: %v", err)
	}
	if v, _ := d.Get("arr.2"); v != "tail" {
		t.Errorf("arr.2 = %v", v)
	}
	// Far out of range must error.
	if err := d.Set("arr.10", "nope"); err == nil {
		t.Error("Set arr.10: want error")
	}
	if err := d.Set("arr.-1", "nope"); err == nil {
		t.Error("Set arr.-1: want error")
	}
}

func TestSetCreatesArrayForNumericSegment(t *testing.T) {
	d := New()
	if err := d.Set("list.0", "first"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	arr := d.GetArray("list")
	if len(arr) != 1 || arr[0] != "first" {
		t.Errorf("list = %v", arr)
	}
}

func TestSetReplacesScalarWithContainer(t *testing.T) {
	d := D{"a": int64(1)}
	if err := d.Set("a.b", 2); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v, _ := d.Get("a.b"); v != int64(2) {
		t.Errorf("a.b = %v", v)
	}
}

func TestSetEmptyPathErrors(t *testing.T) {
	if err := New().Set("", 1); err == nil {
		t.Error("Set(\"\"): want error")
	}
}

func TestUnset(t *testing.T) {
	d := MustFromJSON(`{"a": {"b": 1, "c": 2}, "arr": [10, 20, 30]}`)
	d.Unset("a.b")
	if d.Has("a.b") {
		t.Error("a.b still present")
	}
	if !d.Has("a.c") {
		t.Error("a.c removed")
	}
	d.Unset("arr.1")
	arr := d.GetArray("arr")
	if len(arr) != 2 || arr[0] != int64(10) || arr[1] != int64(30) {
		t.Errorf("arr = %v", arr)
	}
	d.Unset("missing.path") // must not panic
	d.Unset("")
}

func TestCopyIsDeep(t *testing.T) {
	orig := MustFromJSON(`{"nested": {"list": [1, 2, {"k": "v"}]}}`)
	cp := orig.Copy()
	if err := cp.Set("nested.list.2.k", "changed"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v, _ := orig.Get("nested.list.2.k"); v != "v" {
		t.Errorf("original mutated: %v", v)
	}
	if v, _ := cp.Get("nested.list.2.k"); v != "changed" {
		t.Errorf("copy not changed: %v", v)
	}
	var nilDoc D
	if nilDoc.Copy() != nil {
		t.Error("Copy of nil doc should be nil")
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Equal(int64(3), 3.0) {
		t.Error("3 != 3.0")
	}
	if Equal(int64(3), 3.5) {
		t.Error("3 == 3.5")
	}
	if !Equal(D{"a": int64(1)}, map[string]any{"a": 1.0}) {
		t.Error("doc with int64 != doc with float")
	}
	if !Equal([]any{int64(1), "x"}, []any{1.0, "x"}) {
		t.Error("array cross-numeric mismatch")
	}
	if Equal([]any{int64(1)}, []any{int64(1), int64(2)}) {
		t.Error("length-different arrays equal")
	}
}

func TestCompareOrdering(t *testing.T) {
	// nil < numbers < strings < documents < arrays < booleans
	ordered := []any{nil, int64(-1), 0.5, "a", "b", map[string]any{"a": int64(1)}, []any{int64(1)}, false, true}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareDocsByKeyThenValue(t *testing.T) {
	a := map[string]any{"a": int64(1)}
	b := map[string]any{"a": int64(2)}
	if Compare(a, b) != -1 {
		t.Error("doc value compare failed")
	}
	c := map[string]any{"a": int64(1), "b": int64(0)}
	if Compare(a, c) != -1 {
		t.Error("shorter doc should sort first")
	}
}

func TestMerge(t *testing.T) {
	d := D{"keep": int64(1), "replace": int64(2)}
	src := D{"replace": D{"deep": int64(3)}, "new": "x"}
	d.Merge(src)
	if v, _ := d.Get("replace.deep"); v != int64(3) {
		t.Errorf("replace.deep = %v", v)
	}
	if d["new"] != "x" || d["keep"] != int64(1) {
		t.Errorf("merge result = %v", d)
	}
	// Deep copy: mutating source must not affect d.
	src.GetDoc("replace")["deep"] = int64(99)
	if v, _ := d.Get("replace.deep"); v != int64(3) {
		t.Errorf("merge aliased source: %v", v)
	}
}

func TestFlatten(t *testing.T) {
	d := MustFromJSON(`{"a": {"b": 1}, "list": [5, {"k": "v"}], "empty": {}, "earr": []}`)
	flat := d.Flatten()
	want := map[string]any{
		"a.b":      int64(1),
		"list.0":   int64(5),
		"list.1.k": "v",
	}
	for k, v := range want {
		if flat[k] != v {
			t.Errorf("flat[%q] = %v, want %v", k, flat[k], v)
		}
	}
	if _, ok := flat["empty"]; !ok {
		t.Error("empty doc missing from flatten")
	}
	if _, ok := flat["earr"]; !ok {
		t.Error("empty array missing from flatten")
	}
}

func TestToJSONRoundTrip(t *testing.T) {
	d := MustFromJSON(`{"z": 1, "a": {"nested": [1, 2.5, "s", null, true]}}`)
	b, err := d.ToJSON()
	if err != nil {
		t.Fatalf("ToJSON: %v", err)
	}
	back, err := FromJSON(b)
	if err != nil {
		t.Fatalf("FromJSON round trip: %v", err)
	}
	if !Equal(d, back) {
		t.Errorf("round trip mismatch: %v vs %v", d, back)
	}
	if d.String() == "" {
		t.Error("String empty")
	}
}

// genDoc builds a random document from quick-check raw values.
func genDoc(vals []int64, depth int) D {
	d := New()
	for i, v := range vals {
		key := string(rune('a' + i%20))
		switch {
		case depth < 2 && v%3 == 0:
			d[key+"n"] = genDoc(vals[:len(vals)/2], depth+1)
		case v%3 == 1:
			// Floats stay within float64's exact integer range: a huge
			// integral float marshals to integer-looking JSON digits that
			// re-enter as a (different) int64, so Equal-after-JSON-round-trip
			// cannot hold for them now that numeric comparison is exact.
			// Huge int64s (the `default` arm) round-trip exactly.
			d[key+"a"] = []any{v, float64(v%(1<<50)) / 2, "s"}
		default:
			d[key] = v
		}
	}
	return d
}

func TestQuickCopyEqualsOriginal(t *testing.T) {
	f := func(vals []int64) bool {
		d := genDoc(vals, 0)
		return Equal(d, d.Copy())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickJSONRoundTripPreservesEquality(t *testing.T) {
	f := func(vals []int64) bool {
		d := genDoc(vals, 0)
		b, err := d.ToJSON()
		if err != nil {
			return false
		}
		back, err := FromJSON(b)
		if err != nil {
			return false
		}
		return Equal(NormalizeDoc(d), back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareIsAntisymmetric(t *testing.T) {
	f := func(a, b []int64) bool {
		da, db := genDoc(a, 0), genDoc(b, 0)
		return Compare(da, db) == -Compare(db, da)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSetThenGet(t *testing.T) {
	f := func(key string, val int64) bool {
		if key == "" {
			return true
		}
		// Restrict to path-safe keys.
		for _, r := range key {
			if r == '.' || (r >= '0' && r <= '9') {
				return true
			}
		}
		d := New()
		if err := d.Set("outer."+key, val); err != nil {
			return false
		}
		got, ok := d.Get("outer." + key)
		return ok && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFlattenLeavesMatchGets(t *testing.T) {
	f := func(vals []int64) bool {
		d := NormalizeDoc(genDoc(vals, 0))
		for path, v := range d.Flatten() {
			got, ok := d.Get(path)
			if !ok || !Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsFlat(t *testing.T) {
	d := MustFromJSON(`{"a": 1, "b": 2, "c": 3}`)
	s := Measure(d)
	if s.Nodes != 3 || s.Leaves != 3 || s.Depth != 1 {
		t.Errorf("flat stats = %+v", s)
	}
	if s.MeanDepth != 1 {
		t.Errorf("flat mean depth = %v", s.MeanDepth)
	}
}

func TestStatsNested(t *testing.T) {
	// root -> a(interior) -> b(leaf depth 2); root -> c(leaf depth 1)
	d := MustFromJSON(`{"a": {"b": 1}, "c": 2}`)
	s := Measure(d)
	if s.Nodes != 3 {
		t.Errorf("Nodes = %d, want 3", s.Nodes)
	}
	if s.Leaves != 2 {
		t.Errorf("Leaves = %d, want 2", s.Leaves)
	}
	if s.Depth != 2 {
		t.Errorf("Depth = %d, want 2", s.Depth)
	}
	if s.MeanDepth != 1.5 {
		t.Errorf("MeanDepth = %v, want 1.5", s.MeanDepth)
	}
}

func TestStatsArraysAndEmpties(t *testing.T) {
	d := MustFromJSON(`{"arr": [1, [2, 3]], "empty": {}}`)
	// Nodes: arr, arr.0, arr.1, arr.1.0, arr.1.1, empty = 6
	// Leaves: arr.0(d2), arr.1.0(d3), arr.1.1(d3), empty(d1) = 4
	s := Measure(d)
	if s.Nodes != 6 {
		t.Errorf("Nodes = %d, want 6", s.Nodes)
	}
	if s.Leaves != 4 {
		t.Errorf("Leaves = %d, want 4", s.Leaves)
	}
	if s.Depth != 3 {
		t.Errorf("Depth = %d, want 3", s.Depth)
	}
	if want := (2 + 3 + 3 + 1) / 4.0; math.Abs(s.MeanDepth-want) > 1e-12 {
		t.Errorf("MeanDepth = %v, want %v", s.MeanDepth, want)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestMeasureAll(t *testing.T) {
	docs := []D{
		MustFromJSON(`{"a": 1}`),
		MustFromJSON(`{"a": {"b": {"c": 1}}}`),
	}
	s := MeasureAll(docs)
	if s.Depth != 3 {
		t.Errorf("Depth = %d, want 3", s.Depth)
	}
	if s.Nodes != 2 { // (1 + 3)/2 = 2
		t.Errorf("Nodes = %d, want 2", s.Nodes)
	}
	if s.Leaves != 2 {
		t.Errorf("Leaves = %d, want 2", s.Leaves)
	}
	if want := 2.0; s.MeanDepth != want { // leaves at depth 1 and 3
		t.Errorf("MeanDepth = %v, want %v", s.MeanDepth, want)
	}
	empty := MeasureAll(nil)
	if empty.Nodes != 0 || empty.MeanDepth != 0 {
		t.Errorf("MeasureAll(nil) = %+v", empty)
	}
}

func TestApproxSizePositiveAndMonotone(t *testing.T) {
	small := MustFromJSON(`{"a": 1}`)
	big := MustFromJSON(`{"a": 1, "b": "some longer string value", "c": [1,2,3,4,5], "d": {"x": 1.5}}`)
	ss, bs := ApproxSize(small), ApproxSize(big)
	if ss <= 0 || bs <= ss {
		t.Errorf("ApproxSize small=%d big=%d", ss, bs)
	}
	withExotic := D{"t": json.Number("12")}
	if ApproxSize(withExotic) <= 0 {
		t.Error("exotic size <= 0")
	}
}
