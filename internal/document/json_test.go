package document

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// useNumberDecode is the decode ParseJSON replaces: encoding/json with
// UseNumber, then Normalize.
func useNumberDecode(b []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	return Normalize(raw), nil
}

// sameAfterRoundTrip reports whether got (a value re-read from want's
// encoding) equals want. The one permitted change is the encoding's own
// canonicalization: a float64 holding an integer is written without a
// fraction, so it may come back as the int64 that converts to it.
func sameAfterRoundTrip(want, got any) bool {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return false
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok || !sameAfterRoundTrip(wv, gv) {
				return false
			}
		}
		return true
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !sameAfterRoundTrip(w[i], g[i]) {
				return false
			}
		}
		return true
	case float64:
		switch g := got.(type) {
		case float64:
			return g == w
		case int64:
			return float64(g) == w
		}
		return false
	}
	return reflect.DeepEqual(want, got)
}

// FuzzParseAppendJSON checks the codec against encoding/json on
// arbitrary bytes: ParseJSON accepts exactly what json.Unmarshal accepts;
// what it accepts equals Normalize of a UseNumber decode; AppendJSON of
// it writes json.Marshal's bytes; and ParseJSON of those bytes gives the
// value back. The UseNumber comparison skips inputs json.Unmarshal
// rejects, which is where the documented difference (a literal beyond
// float64's range) lives.
func FuzzParseAppendJSON(f *testing.F) {
	for _, seed := range []string{
		`{"_id":"mp-1","pretty_formula":"LiFePO4","band_gap":3.7,"nelements":4,"elements":["Fe","Li","O","P"]}`,
		`{"big":12345678901234567890,"exp":1e2,"neg":-0.0,"negint":-0,"min":-9223372036854775808,"max":9223372036854775807}`,
		`{"tiny":1e-7,"edge":0.000001,"large":1e21,"below":999999999999999999999,"e":1E+2,"frac":123.456e-3}`,
		`{"s":"é𐀀\ud800x\udc00\u2028\u2029é<>&\u0000\b\f\n\r\t\"\\\/","kéy":null}`,
		"{\"bad\":\"\xff\xfe\xed\xa0\x80\"}",
		`{"dup":1,"dup":2}`,
		`{"nested":{"a":[null,true,false,{"b":[]},{}]}}`,
		` [ 1 , "x" , [ ] ] `,
		`1e400`,
		`-1e-400`,
		`01`,
		`1.`,
		`-`,
		`"\u12G4"`,
		`{"a":1} trailing`,
		`{"a" 1}`,
		`[1,]`,
		"\"\x01\"",
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var std any
		stdErr := json.Unmarshal(b, &std)
		v, err := ParseJSON(b)
		if (err == nil) != (stdErr == nil) {
			t.Fatalf("validity differs on %q: ParseJSON %v, json.Unmarshal %v", b, err, stdErr)
		}
		if err != nil {
			return
		}
		want, err := useNumberDecode(b)
		if err != nil {
			t.Fatalf("UseNumber decode rejects %q that json.Unmarshal accepts: %v", b, err)
		}
		if !reflect.DeepEqual(v, want) {
			t.Fatalf("ParseJSON(%q) = %#v, Normalize of a UseNumber decode = %#v", b, v, want)
		}
		enc, err := AppendJSON(nil, v)
		if err != nil {
			t.Fatalf("AppendJSON(%#v): %v", v, err)
		}
		std2, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal(%#v): %v", v, err)
		}
		if !bytes.Equal(enc, std2) {
			t.Fatalf("AppendJSON wrote %q, json.Marshal %q", enc, std2)
		}
		back, err := ParseJSON(enc)
		if err != nil {
			t.Fatalf("ParseJSON of its own encoding %q: %v", enc, err)
		}
		if !sameAfterRoundTrip(v, back) {
			t.Fatalf("round trip changed %#v into %#v", v, back)
		}
	})
}

// FuzzSplitDocs checks the validating splitter against ParseJSON, on the
// fuzzed bytes as a whole reply and wrapped as a reply's docs array:
// SplitDocs accepts exactly the replies ParseJSON accepts whose docs
// member is absent, null or an array of objects; each document's span
// and each member's bytes parse to what ParseJSON gives for them; and on
// AppendJSON's output of a parsed value, each span re-encodes to itself,
// so a router that splices the spans a node wrote sends the bytes it
// would have written from the parsed documents.
func FuzzSplitDocs(f *testing.F) {
	for _, seed := range []string{
		`{"docs":[{"_id":"mp-1","band_gap":3.7,"elements":["Fe","Li"]},{"_id":"mp-2","s":{"a":[1,null]}}],"keys":[[3.7],[null]]}`,
		`[{"_id":"a"},{"x":-0.0,"y":1e-7,"z":12345678901234567890}]`,
		` { "docs" : [ { } , {"a" : 1} ] , "n" : 2 } `,
		`{"docs":null}`,
		`{"keys":[]}`,
		`{"docs":[{"a":1}],"docs":[{"b":2},{"c":3}]}`,
		`{"docs":[1]}`,
		`{"docs":[null]}`,
		`{"docs":"x"}`,
		`{"docs":[{"a":1},]}`,
		`{"docs":[{"a":1e400}]}`,
		`{"docs":[{"s":"\ud800\u2028<&>"}]}`,
		"{\"docs\":[{\"s\":\"\xff\xfe\"}]}",
		"{\"docs\":[{\"s\":\"\x01\"}]}",
		`{"docs":[{"s":"\u12G4"}]}`,
		`{"docs":[]} x`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkSplit(t, b)
		checkSplit(t, append(append([]byte(`{"docs":`), b...), '}'))
	})
}

// checkSplit compares SplitDocs(reply, "docs") with ParseJSON(reply).
func checkSplit(t *testing.T, reply []byte) {
	t.Helper()
	v, perr := ParseJSON(reply)
	m, isObject := v.(map[string]any)
	arr, isArray := m["docs"].([]any)
	want := perr == nil && isObject && (m["docs"] == nil || isArray)
	for _, d := range arr {
		if _, ok := d.(map[string]any); !ok {
			want = false
		}
	}
	docs, fields, err := SplitDocs(reply, "docs")
	if (err == nil) != want {
		t.Fatalf("SplitDocs(%q): err %v; ParseJSON gives %#v, %v", reply, err, v, perr)
	}
	if err != nil {
		return
	}
	if len(docs) != len(arr) {
		t.Fatalf("SplitDocs(%q) found %d documents, ParseJSON %d", reply, len(docs), len(arr))
	}
	for i, span := range docs {
		if got, err := ParseJSON(span); err != nil || !reflect.DeepEqual(got, arr[i]) {
			t.Fatalf("document %d of %q: span %q parses to %#v (%v), want %#v", i, reply, span, got, err, arr[i])
		}
	}
	if len(fields) != len(m) {
		t.Fatalf("SplitDocs(%q) found %d members, ParseJSON %d", reply, len(fields), len(m))
	}
	for k, raw := range fields {
		if got, err := ParseJSON(raw); err != nil || !reflect.DeepEqual(got, m[k]) {
			t.Fatalf("member %q of %q: %q parses to %#v (%v), want %#v", k, reply, raw, got, err, m[k])
		}
	}
	// A float -0 is written "-0", which reads back as the integer 0, so
	// the bytes are canonical from the second encoding on: that is what a
	// node writes for a document stored from JSON.
	var enc []byte
	for i := 0; i < 2; i++ {
		if enc, err = AppendJSON(nil, v); err != nil {
			t.Fatalf("AppendJSON(%#v): %v", v, err)
		}
		if v, err = ParseJSON(enc); err != nil {
			t.Fatalf("ParseJSON of AppendJSON's %q: %v", enc, err)
		}
	}
	encDocs, _, err := SplitDocs(enc, "docs")
	if err != nil {
		t.Fatalf("SplitDocs of AppendJSON's %q: %v", enc, err)
	}
	for _, span := range encDocs {
		d, err := ParseJSON(span)
		if err != nil {
			t.Fatalf("span %q of %q: %v", span, enc, err)
		}
		if again, err := AppendJSON(nil, d); err != nil || !bytes.Equal(again, span) {
			t.Fatalf("span %q re-encodes to %q (%v)", span, again, err)
		}
	}
}

func TestParseJSONNumbers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want any
	}{
		{`0`, int64(0)},
		{`-0`, int64(0)},
		{`9007199254740993`, int64(9007199254740993)},
		{`9223372036854775807`, int64(math.MaxInt64)},
		{`-9223372036854775808`, int64(math.MinInt64)},
		{`9223372036854775808`, float64(9223372036854775808)},
		{`-9223372036854775809`, float64(-9223372036854775808)},
		{`1.0`, float64(1)},
		{`1e2`, float64(100)},
		{`-0.0`, math.Copysign(0, -1)},
		{`1.5`, 1.5},
		{`1e-400`, float64(0)},
	} {
		got, err := ParseJSON([]byte(tc.in))
		if err != nil {
			t.Errorf("ParseJSON(%s): %v", tc.in, err)
			continue
		}
		if got != tc.want || math.Signbit(toF(got)) != math.Signbit(toF(tc.want)) {
			t.Errorf("ParseJSON(%s) = %#v, want %#v", tc.in, got, tc.want)
		}
		if norm := Normalize(json.Number(tc.in)); norm != got {
			t.Errorf("Normalize(json.Number(%s)) = %#v, ParseJSON %#v", tc.in, norm, got)
		}
	}
	// The one documented difference from UseNumber + Normalize.
	if _, err := ParseJSON([]byte(`{"x":1e400}`)); err == nil {
		t.Error("ParseJSON accepted 1e400")
	}
	if got := Normalize(json.Number("1e400")); got != "1e400" {
		t.Errorf("Normalize(1e400) = %#v, want the literal as a string", got)
	}
	// json.Number is any string; Normalize keeps ParseInt's syntax.
	if got := Normalize(json.Number("+5")); got != int64(5) {
		t.Errorf("Normalize(+5) = %#v, want int64 5", got)
	}
	if got := Normalize(json.Number("abc")); got != "abc" {
		t.Errorf("Normalize(abc) = %#v, want the string", got)
	}
}

func toF(v any) float64 {
	f, _ := AsFloat(v)
	return f
}

func TestParseJSONDepth(t *testing.T) {
	nest := func(n int) []byte {
		return []byte(strings.Repeat(`{"a":[`, n/2) + strings.Repeat(`]}`, n/2))
	}
	if _, err := ParseJSON(nest(10000)); err != nil {
		t.Fatalf("10,000 levels: %v", err)
	}
	for _, n := range []int{10002, 20000} {
		if _, err := ParseJSON(nest(n)); err == nil || !strings.Contains(err.Error(), "max depth") {
			t.Errorf("%d levels: err = %v, want the depth limit", n, err)
		}
		if json.Unmarshal(nest(n), new(any)) == nil {
			t.Errorf("json.Unmarshal accepts %d levels; the limits no longer agree", n)
		}
	}
	if json.Unmarshal(nest(10000), new(any)) != nil {
		t.Error("json.Unmarshal rejects 10,000 levels; the limits no longer agree")
	}
	// SplitDocs has the same limit: a reply and its docs array are two
	// levels above the documents.
	for _, n := range []int{9998, 10000} {
		reply := append(append([]byte(`{"docs":[`), nest(n)...), "]}"...)
		_, perr := ParseJSON(reply)
		_, _, serr := SplitDocs(reply, "docs")
		if (perr == nil) != (n == 9998) || (serr == nil) != (perr == nil) {
			t.Errorf("a reply of %d-level documents: ParseJSON %v, SplitDocs %v", n, perr, serr)
		}
	}
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	values := []any{
		nil, true, false, "", "<a&b>", "\u2028\u2029", "\x00\x1f\x7f", "bad\xffutf8", "é",
		int64(-1), int64(math.MaxInt64), 7,
		0.0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e20, 1e21, 1.5e300, -2.5e-10, 123456789.125,
		map[string]any(nil), []any(nil), []D(nil), []D{}, D{},
		D{"b": int64(1), "a": []any{map[string]any{"z": "y", "<": nil}}, "": 1.25},
		[]any{[]string{"x"}, json.Number("12"), float32(1.5), struct{ A int }{3}},
	}
	for _, v := range values {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal(%#v): %v", v, err)
		}
		got, err := AppendJSON([]byte("prefix"), v)
		if err != nil {
			t.Fatalf("AppendJSON(%#v): %v", v, err)
		}
		if string(got) != "prefix"+string(want) {
			t.Errorf("AppendJSON(%#v) = %s, json.Marshal %s", v, got[len("prefix"):], want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendJSON(nil, D{"x": f}); err == nil {
			t.Errorf("AppendJSON accepted %v", f)
		}
	}
	// Past the depth where json.Marshal takes over, a cycle is an error,
	// not unbounded recursion.
	cyc := map[string]any{}
	cyc["self"] = cyc
	if _, err := AppendJSON(nil, cyc); err == nil {
		t.Error("AppendJSON accepted a cyclic map")
	}
	deep := any("leaf")
	for i := 0; i < 1500; i++ {
		deep = []any{deep}
	}
	want, _ := json.Marshal(deep)
	if got, err := AppendJSON(nil, deep); err != nil || !bytes.Equal(got, want) {
		t.Errorf("1,500-deep value: err %v, bytes equal %v", err, bytes.Equal(got, want))
	}
}

// benchDocs builds n documents shaped like the bench corpus: scalar
// properties, an element list and a nested 8-site structure.
func benchDocs(n int) []D {
	rng := rand.New(rand.NewSource(1))
	symbols := []string{"Li", "Fe", "O", "P", "Mn", "Co", "Ni", "S"}
	docs := make([]D, n)
	for i := range docs {
		sites := make([]any, 8)
		for j := range sites {
			sites[j] = map[string]any{
				"species": symbols[rng.Intn(len(symbols))],
				"xyz":     []any{rng.Float64(), rng.Float64(), rng.Float64()},
				"label":   fmt.Sprintf("s%d", j),
			}
		}
		docs[i] = D{
			"_id":            fmt.Sprintf("mat-b%06d", i),
			"pretty_formula": "LiFePO4",
			"elements":       []any{"Fe", "Li", "O", "P"},
			"nelements":      int64(4),
			"band_gap":       rng.Float64() * 5,
			"e_per_atom":     -rng.Float64() * 8,
			"final_energy":   -rng.Float64() * 200,
			"nelectrons":     int64(rng.Intn(400)),
			"structure":      map[string]any{"sites": sites, "lattice": []any{4.1, 4.2, 4.3}},
		}
	}
	return docs
}

func BenchmarkParseJSON(b *testing.B) {
	raw, err := json.Marshal(map[string]any{"docs": benchDocs(100)})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("UseNumberNormalize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := useNumberDecode(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ParseJSON", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseJSON(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAppendJSON(b *testing.B) {
	v := map[string]any{"docs": benchDocs(100)}
	b.Run("Encoder", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AppendJSON", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = AppendJSON(buf[:0], v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
