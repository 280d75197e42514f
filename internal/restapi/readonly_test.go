package restapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/queryengine"
	"matproj/internal/rcache"
)

// reads, while a test has installed it with watchReads, makes every
// engine the API tests build (apiEngine) read through a result cache
// and a readWatch.
var reads *readWatch

// readWatch holds what reads hand out, with the bytes each encoded to
// when it was taken: every stored document of the served stores, taken
// when the engine is built, and every result the backend returns to the
// engine, which is what the engine caches and what a cache hit hands
// every later caller — documents, or the JSON array AppendFind writes,
// held as a copy of its bytes. The router's cached per-group replies are
// the bytes those results were read or spliced from.
type readWatch struct {
	mu     sync.Mutex
	held   []heldRead
	caches []*rcache.Cache
}

type heldRead struct {
	what string
	v    any
	b    []byte
}

// watchReads installs a readWatch for the rest of the test.
func watchReads(t *testing.T) *readWatch {
	t.Helper()
	reads = &readWatch{}
	t.Cleanup(func() { reads = nil })
	return reads
}

func (w *readWatch) hold(what string, v any) {
	b, err := heldBytes(v)
	if err != nil {
		panic(fmt.Sprintf("encode %s: %v", what, err))
	}
	b = bytes.Clone(b) // a byte result is the value itself
	w.mu.Lock()
	w.held = append(w.held, heldRead{what, v, b})
	w.mu.Unlock()
}

// holdStore holds every document stored in s; FindAll returns the stored
// documents themselves.
func (w *readWatch) holdStore(t *testing.T, what string, s *datastore.Store) {
	t.Helper()
	for _, name := range s.Collections() {
		docs, err := s.C(name).FindAll(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			w.hold(fmt.Sprintf("%s %s/%v", what, name, d["_id"]), d)
		}
	}
}

// changed lists every held value that no longer encodes to the bytes it
// was held with.
func (w *readWatch) changed() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, h := range w.held {
		if now, _ := heldBytes(h.v); !bytes.Equal(now, h.b) {
			out = append(out, fmt.Sprintf("%s:\n was %s\n now %s", h.what, h.b, now))
		}
	}
	return out
}

// heldBytes is what a held value reads as now: a byte result itself, or
// the encoding of documents and values.
func heldBytes(v any) ([]byte, error) {
	if raw, ok := v.([]byte); ok {
		return raw, nil
	}
	return document.AppendJSON(nil, v)
}

// heldByteResults counts the byte results the watch holds.
func (w *readWatch) heldByteResults() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, h := range w.held {
		if _, ok := h.v.([]byte); ok {
			n++
		}
	}
	return n
}

// hits sums the hits of every cache the watch installed.
func (w *readWatch) hits() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var n uint64
	for _, c := range w.caches {
		n += c.Stats().Hits
	}
	return n
}

// engine builds an engine over store, or with RESTAPI_BACKEND=routed
// over a cluster holding a copy of it, with one result cache shared by
// the engine and the router (as mpserve wires them), reading through w.
func (w *readWatch) engine(t *testing.T, store *datastore.Store, opts ...queryengine.Option) *queryengine.Engine {
	t.Helper()
	rc := rcache.New(256, nil)
	w.mu.Lock()
	w.caches = append(w.caches, rc)
	w.mu.Unlock()
	w.holdStore(t, "stored", store)
	var b queryengine.Backend = localBackend{store}
	if os.Getenv("RESTAPI_BACKEND") == "routed" {
		router, members := newRouter(t, store, rc)
		for i, m := range members {
			w.holdStore(t, fmt.Sprintf("member %d", i), m)
		}
		b = router
	}
	return queryengine.NewWithBackend(watchedBackend{b, w}, append(opts, queryengine.WithCache(rc))...)
}

// localBackend serves an engine from a local store.
type localBackend struct{ s *datastore.Store }

func (b localBackend) C(name string) queryengine.Collection { return b.s.C(name) }

// watchedBackend holds every result its backend's reads return.
type watchedBackend struct {
	queryengine.Backend
	w *readWatch
}

func (b watchedBackend) C(name string) queryengine.Collection {
	return watchedCollection{b.Backend.C(name), b.w, name}
}

type watchedCollection struct {
	queryengine.Collection
	w    *readWatch
	name string
}

func (c watchedCollection) FindAll(filter document.D, opts *datastore.FindOpts) ([]document.D, error) {
	docs, err := c.Collection.FindAll(filter, opts)
	if err == nil {
		c.w.hold(fmt.Sprintf("%s find %v", c.name, filter), docs)
	}
	return docs, err
}

func (c watchedCollection) AppendFind(dst []byte, filter document.D, opts *datastore.FindOpts) ([]byte, int, error) {
	out, n, err := c.Collection.AppendFind(dst, filter, opts)
	if err == nil {
		c.w.hold(fmt.Sprintf("%s find as bytes %v", c.name, filter), out[len(dst):])
	}
	return out, n, err
}

func (c watchedCollection) Distinct(path string, filter document.D) ([]any, error) {
	vals, err := c.Collection.Distinct(path, filter)
	if err == nil {
		c.w.hold(fmt.Sprintf("%s distinct %s %v", c.name, path, filter), vals)
	}
	return vals, err
}

func (c watchedCollection) Aggregate(pipeline []document.D) ([]document.D, error) {
	docs, err := c.Collection.Aggregate(pipeline)
	if err == nil {
		c.w.hold(fmt.Sprintf("%s aggregate %v", c.name, pipeline), docs)
	}
	return docs, err
}

// runFixedPipelines posts the cluster aggregation oracle's fixed
// pipelines (internal/cluster/testdata/fixed_pipelines.json) twice each
// through /rest/v1/aggregate, over 64 documents carrying the fields they
// match and group on. On a router the second pass is served from the
// cached per-group state rows.
func runFixedPipelines(t *testing.T) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "cluster", "testdata", "fixed_pipelines.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name     string          `json:"name"`
		Pipeline json.RawMessage `json:"pipeline"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no fixed pipelines")
	}
	store := datastore.MustOpenMemory()
	for i := 0; i < 64; i++ {
		d := document.D{
			"_id": fmt.Sprintf("d-%03d", i), "sel": int64(i % 10), "k": int64(i % 4),
			"f": float64(i) / 4, "m": int64(i * 7 % 100), "tags": []any{"a", fmt.Sprint(i % 3)},
		}
		if i%5 != 4 {
			d["g"] = []string{"x", "y", "z"}[i%3]
		}
		if _, err := store.C("materials").Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	srv, key := testServerOn(t, store)
	for _, c := range cases {
		for pass := 0; pass < 2; pass++ {
			status, env := postJSON(t, srv, key, "/rest/v1/aggregate", `{"pipeline": `+string(c.Pipeline)+`}`)
			if status != http.StatusOK || !env.Valid {
				t.Fatalf("%s (pass %d): status %d %+v", c.Name, pass, status, env)
			}
		}
	}
}

// TestReadResultsStayReadOnly is the check of the read-only contract:
// on the standalone and the routed backend, each with a result cache,
// it runs the Materials API suite and the fixed aggregation pipelines,
// and requires every stored document and every result a read handed out
// — the cached JSON arrays /rest/v1/query replies are copied from among
// them — to encode to the bytes it had when it was taken, after every
// later request.
func TestReadResultsStayReadOnly(t *testing.T) {
	for _, backend := range []string{"standalone", "routed"} {
		t.Run(backend, func(t *testing.T) {
			t.Setenv("RESTAPI_BACKEND", backend)
			w := watchReads(t)
			runMaterialsAPISuite(t)
			runFixedPipelines(t)
			if len(w.held) == 0 || w.hits() == 0 || w.heldByteResults() == 0 {
				t.Fatalf("the watch held %d values, %d of them byte results, over %d cache hits; it checks nothing", len(w.held), w.heldByteResults(), w.hits())
			}
			t.Logf("held %d stored documents and read results over %d cache hits", len(w.held), w.hits())
			for _, c := range w.changed() {
				t.Errorf("written through after a read: %s", c)
			}
		})
	}
}

// TestReadOnlyCheckCatchesAWrite is the negative control: a handler
// that writes into a document an engine read returned must fail the
// check, on either backend.
func TestReadOnlyCheckCatchesAWrite(t *testing.T) {
	for _, backend := range []string{"standalone", "routed"} {
		t.Run(backend, func(t *testing.T) {
			t.Setenv("RESTAPI_BACKEND", backend)
			w := watchReads(t)
			store := newTestStore(t)
			eng := apiEngine(t, store)
			mux := http.NewServeMux()
			mux.Handle("/", NewServer(eng, NewAuth(store), store))
			mux.HandleFunc("/mark", func(rw http.ResponseWriter, r *http.Request) {
				docs, err := eng.Find("u", "materials", document.D{"_id": "mat-1"}, nil)
				if err != nil || len(docs) != 1 {
					http.Error(rw, fmt.Sprint(err), http.StatusInternalServerError)
					return
				}
				docs[0]["band_gap"] = -1.0
			})
			srv := httptest.NewServer(mux)
			t.Cleanup(srv.Close)
			resp, err := http.Get(srv.URL + "/mark")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/mark: status %d", resp.StatusCode)
			}
			if len(w.changed()) == 0 {
				t.Fatal("a handler wrote into a read result and the check did not notice")
			}
		})
	}
}

// TestSharedCachedResultUnderConcurrentReads has 8 goroutines read the
// same cached 100-document result through REST, on both backends: every
// reply must carry the same bytes. Under the race detector a write into
// the shared result by any layer is also reported as a race.
func TestSharedCachedResultUnderConcurrentReads(t *testing.T) {
	for _, backend := range []string{"standalone", "routed"} {
		t.Run(backend, func(t *testing.T) {
			t.Setenv("RESTAPI_BACKEND", backend)
			w := watchReads(t)
			store := datastore.MustOpenMemory()
			for i := 0; i < 100; i++ {
				if _, err := store.C("materials").Insert(document.D{
					"_id": fmt.Sprintf("mat-s%03d", i), "shared": true, "band_gap": float64(i) / 20,
					"elements": []any{"Fe", "O"}, "structure": map[string]any{"lattice": []any{4.1, 4.2, float64(i)}},
				}); err != nil {
					t.Fatal(err)
				}
			}
			srv, key := testServerOn(t, store)
			const body = `{"criteria": {"shared": true}, "sort": ["band_gap"], "limit": 100}`
			status, want := postRaw(t, srv, key, "/rest/v1/query", body)
			if status != http.StatusOK || !strings.Contains(want, `"num_results":100`) {
				t.Fatalf("first read: status %d, %.200s", status, want)
			}
			before := w.hits()
			const readers, each = 8, 10
			replies := make(chan string, readers*each)
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						replies <- queryReply(srv.URL, key, body)
					}
				}()
			}
			wg.Wait()
			close(replies)
			for got := range replies {
				if got != want {
					t.Fatalf("a concurrent reply differs from the first:\n got %.300s\nwant %.300s", got, want)
				}
			}
			if hits := w.hits() - before; hits < readers*each {
				t.Fatalf("%d of %d concurrent reads hit the cache, want every one", hits, readers*each)
			}
			for _, c := range w.changed() {
				t.Errorf("written through after a read: %s", c)
			}
		})
	}
}

// queryReply posts body to /rest/v1/query and returns the reply, or a
// description of the failure (the comparison with a good reply reports
// it).
func queryReply(base, key, body string) string {
	req, err := http.NewRequest("POST", base+"/rest/v1/query", strings.NewReader(body))
	if err != nil {
		return err.Error()
	}
	req.Header.Set("X-API-KEY", key)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
