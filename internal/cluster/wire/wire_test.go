package wire

import (
	"encoding/json"
	"testing"

	"matproj/internal/document"
)

// roundTrip sends a document over the wire once more: encode, decode,
// normalize.
func roundTrip(t *testing.T, doc document.D) document.D {
	t.Helper()
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("normalized document %v does not encode: %v", doc, err)
	}
	var m map[string]any
	if err := DecodeJSONBytes(out, &m); err != nil {
		t.Fatalf("re-decode %s: %v", out, err)
	}
	return NormalizeMap(m)
}

// FuzzDecodeJSONBytes checks the wire decoder on arbitrary bytes: it
// never panics, and a document it accepts is stable over the wire — after
// one trip, every further trip returns it unchanged. The first trip may
// still canonicalize: an integral float beyond 2^53 (1000000000000001e2)
// re-encodes as its shortest form and comes back as a different int64.
func FuzzDecodeJSONBytes(f *testing.F) {
	for _, seed := range []string{
		`{"_id":"mp-1","pretty_formula":"LiFePO4","band_gap":3.7,"nelements":4,"elements":["Fe","Li","O","P"]}`,
		`{"nelectrons":{"$lte":200},"elements":{"$all":["Li","O"]}}`,
		`{"big":12345678901234567890,"exp":1e2,"huge":1e400,"neg":-0.0}`,
		`{"nested":{"a":[null,true,false,{"b":[]}]},"s":"é\ud800"}`,
		`{"dup":1,"dup":2}`,
		`null`,
		`[]`,
		`{`,
		`{"a":1} trailing`,
		`{"":1000000000000001e2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m map[string]any
		if err := DecodeJSONBytes(b, &m); err != nil {
			return
		}
		once := roundTrip(t, NormalizeMap(m))
		if twice := roundTrip(t, once); !document.Equal(once, twice) {
			t.Fatalf("second trip changed the document:\n first  %v\n second %v", once, twice)
		}
	})
}
