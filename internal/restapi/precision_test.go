package restapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"matproj/internal/document"
	"matproj/internal/mpclient"
)

// postRaw performs an authenticated POST and returns the status and the
// raw response body, so numbers are seen as the server wrote them.
func postRaw(t *testing.T, srv *httptest.Server, key, path, body string) (int, string) {
	t.Helper()
	req, _ := http.NewRequest("POST", srv.URL+path, strings.NewReader(body))
	req.Header.Set("X-API-KEY", key)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestIntegersKeepPrecisionThroughREST writes integers beyond 2^53
// through insert, insertMany and bulkWrite, on a standalone and on a
// routed backend, and reads them back through a query whose criteria
// carry the same integer, and through mpclient: every digit must
// survive, and the standalone store must hold an integral literal as
// int64, as a journal replay would.
func TestIntegersKeepPrecisionThroughREST(t *testing.T) {
	for _, backend := range []string{"standalone", "routed"} {
		t.Run(backend, func(t *testing.T) {
			store := newTestStore(t)
			eng := newTestEngine(store)
			if backend == "routed" {
				eng = newRoutedEngine(t, store)
			}
			auth := NewAuth(store)
			srv := httptest.NewServer(NewServer(eng, auth, store))
			t.Cleanup(srv.Close)
			key, err := auth.Signup("google", "precise@example.com")
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []struct{ path, body string }{
				{"/rest/v1/insert", `{"doc": {"_id": "big-1", "n": 9007199254740993, "m": 3}}`},
				{"/rest/v1/insertMany", `{"docs": [{"_id": "big-2", "n": 9007199254740995, "m": 3}]}`},
				{"/rest/v1/bulkWrite", `{"ops": [{"op": "insert", "doc": {"_id": "big-3", "n": 9007199254740997, "m": 3}}]}`},
				{"/rest/v1/bulkWrite", `{"ops": [{"op": "updateOne", "filter": {"n": 9007199254740997}, "update": {"$set": {"k": 9007199254740999}}}]}`},
			} {
				if status, body := postRaw(t, srv, key, w.path, w.body); status != http.StatusOK || strings.Contains(body, `"error"`) {
					t.Fatalf("%s: status %d body %s", w.path, status, body)
				}
			}
			for _, q := range []struct{ criteria, want string }{
				{`{"n": 9007199254740993}`, `"n":9007199254740993`},
				{`{"n": 9007199254740995}`, `"n":9007199254740995`},
				{`{"n": 9007199254740997}`, `"k":9007199254740999`},
			} {
				status, body := postRaw(t, srv, key, "/rest/v1/query", `{"criteria": `+q.criteria+`}`)
				if status != http.StatusOK || !strings.Contains(body, `"num_results":1`) || !strings.Contains(body, q.want) {
					t.Errorf("query %s: status %d body %s, want one row with %s", q.criteria, status, body, q.want)
				}
			}
			// mpclient reads the rows back as the store holds them: int64,
			// with every digit.
			client := mpclient.New(srv.URL, key)
			for _, w := range []struct {
				id string
				n  int64
			}{{"big-1", 9007199254740993}, {"big-2", 9007199254740995}, {"big-3", 9007199254740997}} {
				docs, err := client.Query(document.D{"_id": w.id}, nil, 0)
				if err != nil || len(docs) != 1 {
					t.Fatalf("mpclient query %s: %d docs, err %v", w.id, len(docs), err)
				}
				for field, want := range map[string]int64{"n": w.n, "m": 3} {
					if got, isInt := docs[0][field].(int64); !isInt || got != want {
						t.Errorf("mpclient %s.%s = %v (%T), want int64 %d", w.id, field, docs[0][field], docs[0][field], want)
					}
				}
			}
			// A document that is not an object, or holds a literal beyond
			// float64's range, is a malformed body, as it was when the
			// decode went through float64.
			for _, w := range []struct{ path, body string }{
				{"/rest/v1/insert", `{"doc": {"x": 1e400}}`},
				{"/rest/v1/insert", `{"doc": 5}`},
				{"/rest/v1/insertMany", `{"docs": [["not", "a", "doc"]]}`},
				{"/rest/v1/query", `{"criteria": "x"}`},
			} {
				if status, body := postRaw(t, srv, key, w.path, w.body); status != http.StatusBadRequest || !strings.Contains(body, "invalid JSON body") {
					t.Errorf("%s %s: status %d body %s, want 400 invalid JSON body", w.path, w.body, status, body)
				}
			}
			if backend == "standalone" {
				d, err := store.C("materials").FindID("big-1")
				if err != nil {
					t.Fatal(err)
				}
				if _, isInt := d["m"].(int64); !isInt {
					t.Errorf("stored m is %T, want int64", d["m"])
				}
				if !document.Equal(d["n"], int64(9007199254740993)) {
					t.Errorf("stored n = %v", d["n"])
				}
			}
		})
	}
}
