package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

// roundTrip sends a document over the wire once more: encode, then
// decode into a document.D field's type.
func roundTrip(t *testing.T, doc document.D) document.D {
	t.Helper()
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("decoded document %v does not encode: %v", doc, err)
	}
	var d document.D
	if err := DecodeJSONBytes(out, &d); err != nil {
		t.Fatalf("re-decode %s: %v", out, err)
	}
	return d
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
		var d document.D
		if err := DecodeJSONBytes(b, &d); err != nil {
			return
		}
		once := roundTrip(t, d)
		if twice := roundTrip(t, once); !document.Equal(once, twice) {
			t.Fatalf("second trip changed the document:\n first  %v\n second %v", once, twice)
		}
	})
}

// oldDocsResponse is the reply shape before the one-pass codec: raw maps
// through encoding/json, normalized after decoding.
type oldDocsResponse struct {
	Docs []map[string]any `json:"docs"`
}

func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDocRepliesKeepTheirBytes checks that the codec changed no byte on
// the wire: document replies append exactly what json.Encoder wrote for
// them, other replies still go through it, and parsing a reply gives the
// documents the old decode-then-normalize gave.
func TestDocRepliesKeepTheirBytes(t *testing.T) {
	docs := []document.D{
		{"_id": "mat-1", "band_gap": 1.25, "nelements": int64(3), "big": int64(9007199254740993),
			"elements": []any{"Li", "O"}, "s": map[string]any{"html": "<&>", "tiny": 1e-9, "neg": math.Copysign(0, -1)}},
		{"_id": "mat-2", "none": nil, "ok": true, "empty": map[string]any{}, "list": []any{}},
	}
	raw := make([]map[string]any, len(docs))
	for i, d := range docs {
		raw[i] = d
	}
	for _, tc := range []struct {
		name     string
		reply    any
		previous any
	}{
		{"docs", DocsResponse{Docs: docs}, oldDocsResponse{Docs: raw}},
		{"no docs", DocsResponse{}, oldDocsResponse{Docs: []map[string]any{}}},
		{"doc", DocResponse{Doc: docs[0]}, struct {
			Doc map[string]any `json:"doc,omitempty"`
		}{raw[0]}},
		{"empty doc", DocResponse{}, struct {
			Doc map[string]any `json:"doc,omitempty"`
		}{}},
		{"count", CountResponse{N: 3, Gen: 7}, CountResponse{N: 3, Gen: 7}},
		// Requests: document.D fields write what the map fields wrote.
		{"find", FindRequest{Collection: "m", Filter: docs[0], Opts: &FindOpts{Projection: docs[1], Limit: 2}},
			struct {
				Collection string         `json:"collection"`
				Filter     map[string]any `json:"filter,omitempty"`
				Opts       any            `json:"opts,omitempty"`
			}{"m", raw[0], struct {
				Projection map[string]any `json:"projection,omitempty"`
				Limit      int            `json:"limit,omitempty"`
			}{raw[1], 2}}},
		{"bulk", BulkWriteRequest{Collection: "m", Ops: []datastore.BulkOp{{Op: "insert", Doc: docs[0]}, {Op: "delete", Filter: docs[1]}}},
			struct {
				Collection string `json:"collection"`
				Ops        []struct {
					Op     string         `json:"op"`
					Doc    map[string]any `json:"doc,omitempty"`
					Filter map[string]any `json:"filter,omitempty"`
					Update map[string]any `json:"update,omitempty"`
				} `json:"ops"`
			}{"m", []struct {
				Op     string         `json:"op"`
				Doc    map[string]any `json:"doc,omitempty"`
				Filter map[string]any `json:"filter,omitempty"`
				Update map[string]any `json:"update,omitempty"`
			}{{Op: "insert", Doc: raw[0]}, {Op: "delete", Filter: raw[1]}}}},
	} {
		got, err := AppendReply([]byte("x"), tc.reply)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := encoderBytes(t, tc.previous); string(got) != "x"+string(want) {
			t.Errorf("%s: appended %q, json.Encoder wrote %q", tc.name, got[1:], want)
		}
	}

	// A reply parses in one pass to the documents a []document.D field
	// decodes to, and re-encoding them gives bytes that parse back to the
	// same documents.
	body := encoderBytes(t, oldDocsResponse{Docs: raw})
	var field struct {
		Docs []document.D `json:"docs"`
	}
	if err := DecodeJSON(bytes.NewReader(body), &field); err != nil {
		t.Fatal(err)
	}
	var got DocsResponse
	if err := DecodeJSONBytes(body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Docs, field.Docs) {
		t.Errorf("reply parsed to %#v, a []document.D field to %#v", got.Docs, field.Docs)
	}
	var again DocsResponse
	if err := DecodeJSONBytes(encoderBytes(t, got), &again); err != nil || !reflect.DeepEqual(again.Docs, got.Docs) {
		t.Errorf("second trip parsed to %#v, %v; want %#v", again.Docs, err, got.Docs)
	}
	var distinct DistinctResponse
	if err := DecodeJSONBytes([]byte(`{"values":[9007199254740993,2.5,"x",{"a":1}]}`), &distinct); err != nil ||
		!reflect.DeepEqual(distinct.Values, []any{int64(9007199254740993), 2.5, "x", map[string]any{"a": int64(1)}}) {
		t.Errorf("DistinctResponse parsed to %#v, %v", distinct.Values, err)
	}
	var one DocResponse
	if err := DecodeJSONBytes(encoderBytes(t, DocResponse{Doc: docs[1]}), &one); err != nil || !document.Equal(one.Doc, docs[1]) {
		t.Errorf("DocResponse parsed to %v, %v; want %v", one.Doc, err, docs[1])
	}
	for _, bad := range []string{`{"docs":[1]}`, `{"docs":{}}`, `[]`, `{"docs":[]} x`, `{"doc":"x"}`} {
		var r DocsResponse
		var d DocResponse
		if DecodeJSONBytes([]byte(bad), &r) == nil && DecodeJSONBytes([]byte(bad), &d) == nil {
			t.Errorf("both document replies accepted %s", bad)
		}
	}
}

// TestDeepReplyIsAnError sends a reply nested 20,000 levels deep, twice
// encoding/json's limit: parsing must fail with an error, not recurse
// without bound.
func TestDeepReplyIsAnError(t *testing.T) {
	body := `{"docs":[` + strings.Repeat(`{"a":[`, 10000) + strings.Repeat(`]}`, 10000) + `]}`
	var r DocsResponse
	if err := DecodeJSONBytes([]byte(body), &r); err == nil {
		t.Fatal("a 20,000-deep reply decoded without error")
	}
}

// TestFindReplyWithKeys builds a keyed find reply the way a node does
// and decodes it both ways: DocsResponse (what DecodeJSONBytes and
// NormalizedDocs give any other reader) ignores the keys, and FindReply
// keeps each document's bytes and parses only the keys. A reply whose
// keys do not pair one-to-one with its documents is an error.
func TestFindReplyWithKeys(t *testing.T) {
	docs := []document.D{
		{"_id": "mat-1", "band_gap": 1.25, "s": map[string]any{"html": "<&>"}},
		{"_id": "mat-2", "band_gap": nil, "n": int64(9007199254740993)},
	}
	body, err := AppendDocsReply(nil, func(dst []byte) ([]byte, []byte, error) {
		dst, err := document.AppendJSON(dst, docs)
		return dst, []byte(`[[1.25,"mat-1"],[null,"mat-2"]]`), err
	})
	if err != nil {
		t.Fatal(err)
	}
	var plain DocsResponse
	if err := DecodeJSONBytes(body, &plain); err != nil || !reflect.DeepEqual(plain.NormalizedDocs(), docs) {
		t.Errorf("DocsResponse of a keyed reply: %v, %v", plain.Docs, err)
	}
	var raw FindReply
	if err := DecodeJSONBytes(body, &raw); err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		if want, _ := document.AppendJSON(nil, d); !bytes.Equal(raw.Docs[i], want) {
			t.Errorf("document %d: span %s, want %s", i, raw.Docs[i], want)
		}
	}
	if want := [][]any{{1.25, "mat-1"}, {nil, "mat-2"}}; !reflect.DeepEqual(raw.Keys, want) {
		t.Errorf("keys = %#v, want %#v", raw.Keys, want)
	}
	for _, bad := range []string{
		`{"docs":[{"_id":"a"}],"keys":[]}`,
		`{"docs":[{"_id":"a"}],"keys":["a"]}`,
		`{"docs":[{"_id":"a"}],"keys":{}}`,
		`{"docs":[1],"keys":[[1]]}`,
	} {
		if err := DecodeJSONBytes([]byte(bad), &FindReply{}); err == nil {
			t.Errorf("FindReply accepted %s", bad)
		}
	}
}
