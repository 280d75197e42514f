package main

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/queryengine"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (-1 for a request's root).
type span struct {
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Req     int64   `json:"req"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// Span names, outermost first. A routed request nests restapi > router >
// roundtrip > node; a standalone one restapi > datastore.
const (
	spanEdge      = "restapi"
	spanRouter    = "router"
	spanStore     = "datastore"
	spanRoundtrip = "roundtrip"
	spanNode      = "node"
)

// spanHeader carries the calling roundtrip span's id to the node.
const spanHeader = "X-Bench-Span"

// tracer records spans at the public seams between layers: handler
// wrappers around the REST server and each node, a decorator on the
// engine's backend, and the router's http.RoundTripper. It keeps them in
// memory. The traced replay runs one request at a time, so "the current
// request" and "the current backend call" are single values.
type tracer struct {
	t0 time.Time
	on atomic.Bool // spans are recorded only while the replay runs

	req     atomic.Int64 // current request id
	edge    atomic.Int64 // current restapi span
	backend atomic.Int64 // current router/datastore span

	mu        sync.Mutex
	spans     []span
	respBytes int64    // REST reply bodies
	wireBytes int64    // node request and reply bodies
	replies   [][]byte // captured node /find replies, for the decode probe
	replyCap  int
}

func newTracer() *tracer {
	// 4 MB of captured replies is plenty to time decoding, and copying
	// every reply would be most of the tracer's overhead.
	return &tracer{t0: time.Now(), replyCap: 4 << 20}
}

func (t *tracer) begin(name string, parent int64) int {
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: int(parent), Req: t.req.Load(), StartMs: now, EndMs: now})
	return id
}

func (t *tracer) end(id int) {
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndMs = now
	t.mu.Unlock()
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return w.ResponseWriter.Write(b)
}

// wrapEdge spans every Materials API request.
func (t *tracer) wrapEdge(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !strings.HasPrefix(r.URL.Path, "/rest/") {
			h.ServeHTTP(w, r)
			return
		}
		t.req.Add(1)
		id := t.begin(spanEdge, -1)
		t.edge.Store(int64(id))
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.end(id)
		t.mu.Lock()
		t.respBytes += cw.n
		t.mu.Unlock()
	})
}

// wrapNode spans every node call that a traced roundtrip caused.
func (t *tracer) wrapNode(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin(spanNode, int64(parent))
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// tracedBackend decorates the engine's storage backend: every collection
// call the workloads make becomes a span under the current request.
type tracedBackend struct {
	queryengine.Backend
	t    *tracer
	name string
}

func (b tracedBackend) C(name string) queryengine.Collection {
	return tracedCollection{b.Backend.C(name), b.t, b.name}
}

type tracedCollection struct {
	queryengine.Collection
	t    *tracer
	name string
}

// call opens the backend span and returns the function that closes it.
func (c tracedCollection) call() func() {
	if !c.t.on.Load() {
		return func() {}
	}
	id := c.t.begin(c.name, c.t.edge.Load())
	c.t.backend.Store(int64(id))
	return func() { c.t.end(id) }
}

func (c tracedCollection) FindAll(f document.D, o *datastore.FindOpts) ([]document.D, error) {
	defer c.call()()
	return c.Collection.FindAll(f, o)
}

func (c tracedCollection) Aggregate(p []document.D) ([]document.D, error) {
	defer c.call()()
	return c.Collection.Aggregate(p)
}

func (c tracedCollection) Insert(d document.D) (string, error) {
	defer c.call()()
	return c.Collection.Insert(d)
}

func (c tracedCollection) InsertMany(d []document.D) ([]string, error) {
	defer c.call()()
	return c.Collection.InsertMany(d)
}

// tracedTransport is the router's http.RoundTripper: one span per node
// call, from the request leaving to the last byte of the reply.
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (rt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := rt.t
	if !t.on.Load() {
		return rt.base.RoundTrip(req)
	}
	id := t.begin(spanRoundtrip, t.backend.Load())
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		t.end(id)
		return nil, err
	}
	body := &tracedBody{ReadCloser: resp.Body, t: t, id: id, sent: max(req.ContentLength, 0)}
	t.mu.Lock()
	if t.replyCap > 0 && strings.HasSuffix(req.URL.Path, "/find") {
		body.capture = []byte{}
	}
	t.mu.Unlock()
	resp.Body = body
	return resp, nil
}

// tracedBody ends its roundtrip span when the reply has been read to the
// end (or closed early) and accounts the call's bytes.
type tracedBody struct {
	io.ReadCloser
	t       *tracer
	id      int
	sent    int64
	read    int64
	capture []byte // non-nil: keep the reply for the decode probe
	done    bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.read += int64(n)
	if b.capture != nil {
		b.capture = append(b.capture, p[:n]...)
	}
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *tracedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	t := b.t
	t.end(b.id)
	t.mu.Lock()
	t.wireBytes += b.sent + b.read
	if b.capture != nil {
		t.replyCap -= len(b.capture)
		t.replies = append(t.replies, b.capture)
	}
	t.mu.Unlock()
}

// selfTimes is, per span name, the summed self time in ms: each span's
// duration minus the part of it its child spans cover. Children that run
// in parallel (a scatter's roundtrips) cover their union once and share
// that time in proportion to their lengths, so the self times under a
// request add up to the request's wall time.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	var attribute func(s span, share float64)
	attribute = func(s span, share float64) {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartMs < kids[j].StartMs })
		covered, total, edge := 0.0, 0.0, s.StartMs
		for i := range kids {
			k := &kids[i]
			k.StartMs, k.EndMs = max(k.StartMs, s.StartMs), min(k.EndMs, s.EndMs)
			total += k.EndMs - k.StartMs
			if lo := max(k.StartMs, edge); k.EndMs > lo {
				covered += k.EndMs - lo
				edge = k.EndMs
			}
		}
		self[s.Name] += share * (s.EndMs - s.StartMs - covered)
		for _, k := range kids {
			if total > 0 {
				attribute(k, share*covered/total)
			}
		}
	}
	for _, s := range spans {
		if s.Parent < 0 {
			attribute(s, 1)
		}
	}
	return self
}
