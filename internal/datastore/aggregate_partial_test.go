package datastore

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"matproj/internal/document"
)

// partialGroupSpecs are the $group shapes the partial/combine fuzz
// drives: every splittable accumulator over a field key, a null key, and
// a $count stage.
var partialGroupSpecs = []document.D{
	{"$group": doc(`{"_id": "$g", "n": {"$sum": 1}, "s": {"$sum": "$v"}, "a": {"$avg": "$v"},
		"lo": {"$min": "$v"}, "hi": {"$max": "$v"}, "c": {"$count": {}}}`)},
	{"$group": doc(`{"_id": null, "s": {"$sum": "$v"}, "a": {"$avg": "$v"}, "lo": {"$min": "$v"}}`)},
	{"$count": "total"},
}

// fuzzDocs decodes data into documents, three bytes each: a group key
// selector, a value type and a value. Numbers are multiples of 0.25 in
// [-32, 32), so every sum is exact in float64 whatever the order of
// addition, and combine must equal the whole-set result exactly.
func fuzzDocs(data []byte) []document.D {
	var docs []document.D
	for i := 0; i+2 < len(data); i += 3 {
		d := document.D{}
		switch data[i] % 4 {
		case 0:
			d["g"] = "a"
		case 1:
			d["g"] = "b"
		case 2:
			d["g"] = nil
		} // 3: key field missing
		b := data[i+2]
		switch data[i+1] % 6 {
		case 0:
			d["v"] = int64(int8(b))
		case 1:
			d["v"] = float64(int8(b)) / 4
		case 2:
			d["v"] = string(rune('a' + b%8))
		case 3:
			d["v"] = b%2 == 0
		case 4:
			d["v"] = nil
		} // 5: value field missing
		docs = append(docs, d)
	}
	return docs
}

// viaWire round-trips rows through JSON the way the node transport does
// (json.Number plus Normalize), so number fidelity is part of the check.
func viaWire(t *testing.T, rows []document.D) []document.D {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var raw []map[string]any
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	out := make([]document.D, len(raw))
	for i, m := range raw {
		out[i] = document.NormalizeDoc(document.D(m))
	}
	return out
}

// FuzzGroupPartialCombine splits a fuzzed document set into k parts,
// runs RunPartial on each, combines the state rows and requires the
// result to equal the stage over the whole set: same rows, same order.
func FuzzGroupPartialCombine(f *testing.F) {
	f.Add([]byte{}, uint8(2), uint8(0))
	f.Add([]byte{0, 0, 5, 1, 1, 9, 2, 2, 3, 3, 3, 0, 0, 4, 0}, uint8(3), uint8(0))
	f.Add([]byte{2, 1, 255, 3, 0, 128, 0, 5, 7, 1, 1, 1}, uint8(4), uint8(1))
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3}, uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, k, which uint8) {
		docs := fuzzDocs(data)
		stage := partialGroupSpecs[int(which)%len(partialGroupSpecs)]
		parts := make([][]document.D, int(k%5)+1)
		for i, d := range docs {
			// A part may stay empty: a shard with no matches.
			slot := (i*7 + int(data[i*3])) % len(parts)
			parts[slot] = append(parts[slot], d)
		}
		want, err := RunPipeline(docs, []document.D{stage})
		if err != nil {
			t.Fatal(err)
		}
		var states []document.D
		for _, p := range parts {
			rows, err := RunPartial(p, stage)
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, viaWire(t, rows)...)
		}
		got, err := CombinePartial(stage, states)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("combine = %d rows, whole set = %d\n got %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range want {
			if !document.Equal(got[i], want[i]) {
				t.Fatalf("row %d: combine %v, whole set %v", i, got[i], want[i])
			}
		}
	})
}

// TestSplittableShapes pins which stages take the partial/combine
// path: order-dependent accumulators and malformed stages do not.
func TestSplittableShapes(t *testing.T) {
	for _, tc := range []struct {
		stage document.D
		want  bool
	}{
		{document.D{"$count": "n"}, true},
		{document.D{"$count": ""}, false},
		{document.D{"$group": doc(`{"_id": "$g", "n": {"$sum": 1}, "a": {"$avg": "$v"}, "c": {"$count": {}}}`)}, true},
		{document.D{"$group": doc(`{"_id": null, "lo": {"$min": "$v"}, "hi": {"$max": "$v"}}`)}, true},
		{document.D{"$group": doc(`{"_id": "$g", "f": {"$first": "$v"}}`)}, false},
		{document.D{"$group": doc(`{"_id": "$g", "l": {"$last": "$v"}}`)}, false},
		{document.D{"$group": doc(`{"_id": "$g", "p": {"$push": "$v"}}`)}, false},
		{document.D{"$group": doc(`{"_id": "$g", "s": {"$addToSet": "$v"}}`)}, false},
		{document.D{"$group": doc(`{"n": {"$sum": 1}}`)}, false},
		{document.D{"$group": doc(`{"_id": "$g", "n": {"$bogus": 1}}`)}, false},
		{document.D{"$sort": doc(`{"_id": 1}`)}, false},
	} {
		if got := Splittable(tc.stage); got != tc.want {
			t.Errorf("Splittable(%v) = %v, want %v", tc.stage, got, tc.want)
		}
	}
}

// TestCombineKeepsIntegralSumRule: partial sums that meet at the router
// obey $group's rule — an integral $sum is int64 only inside int64
// range — and a $count over empty parts is a single zero row.
func TestCombineKeepsIntegralSumRule(t *testing.T) {
	stage := document.D{"$group": doc(`{"_id": null, "s": {"$sum": "$v"}}`)}
	var states []document.D
	for _, v := range []any{int64(1 << 62), int64(1 << 62)} {
		rows, err := RunPartial([]document.D{{"v": v}}, stage)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, viaWire(t, rows)...)
	}
	out, err := CombinePartial(stage, states)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := out[0]["s"].(float64); !ok || got != 1<<63 {
		t.Errorf("combined $sum = %v (%T), want float64 2^63", out[0]["s"], out[0]["s"])
	}

	// A part whose own sum overflows float64 ships it as a string (JSON
	// has no Inf), and the combined result is the standalone one.
	rows, err := RunPartial([]document.D{{"v": math.MaxFloat64}, {"v": math.MaxFloat64}}, stage)
	if err != nil {
		t.Fatal(err)
	}
	out, err = CombinePartial(stage, viaWire(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := out[0]["s"].(float64); !ok || !math.IsInf(got, 1) {
		t.Errorf("combined overflowing $sum = %v (%T), want float64 +Inf", out[0]["s"], out[0]["s"])
	}

	count := document.D{"$count": "n"}
	var empty []document.D
	for range 3 {
		rows, err := RunPartial(nil, count)
		if err != nil {
			t.Fatal(err)
		}
		empty = append(empty, viaWire(t, rows)...)
	}
	out, err = CombinePartial(count, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0]["n"] != int64(0) {
		t.Errorf("combined empty $count = %v, want [{n: 0}]", out)
	}
}
