// Package cluster is the sharded, replicated deployment the paper
// reserves for future scalability (§IV-D2): shard nodes expose datastore
// primitives over an internal HTTP API, and a query router owns the
// shard map, hash-partitioning documents on _id, scattering reads across
// groups and re-merging them with a standalone store's sort/skip/limit
// semantics (partition.go), running writes on each group's primary and
// shipping them to its replicas through the replication log, and
// promoting replicas when a primary stops answering.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"matproj/internal/cluster/wire"
	"matproj/internal/datastore"
	"matproj/internal/obs"
)

// Node is one shard member: a datastore exposed over the internal wire
// protocol. It is an http.Handler; mount it at the server root (paths
// already carry the /internal/v1 prefix).
type Node struct {
	id    string
	store *datastore.Store
	reg   *obs.Registry
	mux   *http.ServeMux
}

// NewNode wraps a store in the node transport. reg may be nil (metrics
// become no-ops).
func NewNode(id string, store *datastore.Store, reg *obs.Registry) *Node {
	n := &Node{id: id, store: store, reg: reg, mux: http.NewServeMux()}
	// Every node is a replication-log peer: its store serves pulls from
	// the bounded entry ring.
	store.EnableReplication(0)
	post := func(path string, h func(w http.ResponseWriter, r *http.Request) error) {
		n.mux.HandleFunc("POST "+wire.Version+path, func(w http.ResponseWriter, r *http.Request) {
			n.serve(path, w, r, h)
		})
	}
	post(wire.PathInsert, n.handleInsert)
	post(wire.PathInsertMany, n.handleInsertMany)
	post(wire.PathBulkWrite, n.handleBulkWrite)
	post(wire.PathFind, n.handleFind)
	post(wire.PathCount, n.handleCount)
	post(wire.PathGet, n.handleGet)
	post(wire.PathUpdate, n.handleUpdate)
	post(wire.PathRemove, n.handleRemove)
	post(wire.PathAggregate, n.handleAggregate)
	post(wire.PathDistinct, n.handleDistinct)
	post(wire.PathEnsureIndex, n.handleEnsureIndex)
	post(wire.PathExplain, n.handleExplain)
	post(wire.PathReplPull, n.handleReplPull)
	post(wire.PathReplApply, n.handleReplApply)
	post(wire.PathReplSnapshot, n.handleReplSnapshot)
	n.mux.HandleFunc("GET "+wire.Version+wire.PathHealth, n.handleHealth)
	return n
}

// ID reports the node's identifier (used in health responses).
func (n *Node) ID() string { return n.id }

// Store exposes the node's underlying datastore (tests and process
// wiring).
func (n *Node) Store() *datastore.Store { return n.store }

func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mux.ServeHTTP(w, r)
}

// serve wraps one op handler with metrics and error mapping.
func (n *Node) serve(op string, w http.ResponseWriter, r *http.Request, h func(http.ResponseWriter, *http.Request) error) {
	start := time.Now()
	err := h(w, r)
	n.reg.Counter("node_ops_total").Inc()
	n.reg.LatencyHistogram("node_op" + op + "_ms").ObserveDuration(time.Since(start))
	if err != nil {
		n.reg.Counter("node_op_errors_total").Inc()
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, datastore.ErrNotFound):
			status = http.StatusNotFound
		case isBadRequest(err):
			status = http.StatusBadRequest
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(wire.ErrorResponse{Error: err.Error()})
	}
}

// badRequestError marks caller mistakes (malformed bodies, bad repl
// parameters) so serve maps them to 400 rather than 500.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return badRequestError{fmt.Errorf(format, args...)}
}

func isBadRequest(err error) bool {
	var br badRequestError
	return errors.As(err, &br)
}

func writeJSON(w http.ResponseWriter, v any) error {
	return writeReply(w, func(dst []byte) ([]byte, error) { return wire.AppendReply(dst, v) })
}

// replyBufs recycles reply bodies between requests; a body grows to the
// size of a result page, so reusing it saves the append growth on every
// reply.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply keeps one unusually large reply from pinning its buffer.
const maxPooledReply = 1 << 20

// writeReply appends a whole reply body, then writes it. Nothing is sent
// when appendBody fails, so serve can still answer with an error status;
// its error is returned as is, for the handler to name the operation.
func writeReply(w http.ResponseWriter, appendBody func([]byte) ([]byte, error)) error {
	buf := replyBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledReply {
			replyBufs.Put(buf)
		}
	}()
	body, err := appendBody((*buf)[:0])
	*buf = body
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("cluster: write response: %w", err)
	}
	return nil
}

func (n *Node) handleInsert(w http.ResponseWriter, r *http.Request) error {
	var req wire.InsertRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	id, err := n.store.C(req.Collection).Insert(req.Doc)
	if err != nil {
		return fmt.Errorf("cluster: insert %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.InsertResponse{ID: id, Gen: n.store.ReplGen()})
}

func (n *Node) handleInsertMany(w http.ResponseWriter, r *http.Request) error {
	var req wire.InsertManyRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	ids, err := n.store.C(req.Collection).InsertMany(req.Docs)
	if err != nil {
		return fmt.Errorf("cluster: insertMany %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.InsertManyResponse{IDs: ids, Gen: n.store.ReplGen()})
}

func (n *Node) handleBulkWrite(w http.ResponseWriter, r *http.Request) error {
	var req wire.BulkWriteRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	res, err := n.store.C(req.Collection).BulkWrite(req.Ops)
	if err != nil {
		return fmt.Errorf("cluster: bulkWrite %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.FromBulkResult(res, n.store.ReplGen()))
}

func (n *Node) handleFind(w http.ResponseWriter, r *http.Request) error {
	var req wire.FindRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	c, opts := n.store.C(req.Collection), req.Opts.ToFindOpts()
	err := writeReply(w, func(dst []byte) ([]byte, error) {
		return wire.AppendDocsReply(dst, func(dst []byte) ([]byte, []byte, error) {
			if !req.Keys {
				dst, _, err := c.AppendFind(dst, req.Filter, opts)
				//lint:ignore wrapcheck the handler wraps it below, naming the operation and collection
				return dst, nil, err
			}
			dst, keys, _, err := c.AppendFindKeys(dst, nil, req.Filter, opts)
			//lint:ignore wrapcheck the handler wraps it below, naming the operation and collection
			return dst, keys, err
		})
	})
	if err != nil {
		return fmt.Errorf("cluster: find %s: %w", req.Collection, err)
	}
	return nil
}

func (n *Node) handleCount(w http.ResponseWriter, r *http.Request) error {
	var req wire.CountRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	c, err := n.store.C(req.Collection).Count(req.Filter)
	if err != nil {
		return fmt.Errorf("cluster: count %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.CountResponse{N: c})
}

func (n *Node) handleGet(w http.ResponseWriter, r *http.Request) error {
	var req wire.GetRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	c := n.store.C(req.Collection)
	err := writeReply(w, func(dst []byte) ([]byte, error) {
		return wire.AppendDocReply(dst, func(dst []byte) ([]byte, error) { return c.AppendID(dst, req.ID) })
	})
	if err != nil {
		return fmt.Errorf("cluster: get %s/%s: %w", req.Collection, req.ID, err)
	}
	return nil
}

func (n *Node) handleUpdate(w http.ResponseWriter, r *http.Request) error {
	var req wire.UpdateRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	c := n.store.C(req.Collection)
	var res datastore.UpdateResult
	var err error
	if req.Many {
		res, err = c.UpdateMany(req.Filter, req.Update)
	} else {
		res, err = c.UpdateOne(req.Filter, req.Update)
	}
	if err != nil {
		return fmt.Errorf("cluster: update %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.UpdateResponse{Matched: res.Matched, Modified: res.Modified, Gen: n.store.ReplGen()})
}

func (n *Node) handleRemove(w http.ResponseWriter, r *http.Request) error {
	var req wire.RemoveRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	c, err := n.store.C(req.Collection).Remove(req.Filter)
	if err != nil {
		return fmt.Errorf("cluster: remove %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.CountResponse{N: c, Gen: n.store.ReplGen()})
}

func (n *Node) handleAggregate(w http.ResponseWriter, r *http.Request) error {
	var req wire.AggregateRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	c, pipeline := n.store.C(req.Collection), req.Pipeline
	run := c.Aggregate
	if req.Partial {
		run = c.AggregatePartial
	}
	docs, err := run(pipeline)
	if err != nil {
		return fmt.Errorf("cluster: aggregate %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.DocsResponse{Docs: docs})
}

func (n *Node) handleDistinct(w http.ResponseWriter, r *http.Request) error {
	var req wire.DistinctRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	vals, err := n.store.C(req.Collection).Distinct(req.Path, req.Filter)
	if err != nil {
		return fmt.Errorf("cluster: distinct %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.DistinctResponse{Values: vals})
}

func (n *Node) handleEnsureIndex(w http.ResponseWriter, r *http.Request) error {
	var req wire.EnsureIndexRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	n.store.C(req.Collection).EnsureOrderedIndex(req.Paths...)
	return writeJSON(w, wire.OKResponse{OK: true, Gen: n.store.ReplGen()})
}

func (n *Node) handleExplain(w http.ResponseWriter, r *http.Request) error {
	var req wire.ExplainRequest
	if err := wire.DecodeJSON(r.Body, &req); err != nil {
		return badRequest("%v", err)
	}
	plan, err := n.store.C(req.Collection).Explain(req.Filter, req.Opts.ToFindOpts())
	if err != nil {
		return badRequest("cluster: explain %s: %v", req.Collection, err)
	}
	return writeJSON(w, wire.DocResponse{Doc: plan})
}

func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	docs := 0
	for _, name := range n.store.Collections() {
		c, _ := n.store.C(name).Count(nil)
		docs += c
	}
	writeJSON(w, wire.HealthResponse{
		OK:          true,
		NodeID:      n.id,
		Collections: len(n.store.Collections()),
		Documents:   docs,
		AppliedGen:  n.store.ReplGen(),
	})
}

// readLogLines splits a repl line stream (newline-joined framed journal
// lines) into its lines, dropping empties.
func readLogLines(r io.Reader) ([][]byte, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cluster: read log stream: %w", err)
	}
	var lines [][]byte
	for _, ln := range bytes.Split(body, []byte("\n")) {
		if len(ln) > 0 {
			lines = append(lines, ln)
		}
	}
	return lines, nil
}

// writeLogLines streams framed lines with the node's head generation in
// the response header.
func writeLogLines(w http.ResponseWriter, lines [][]byte, head uint64) error {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set(wire.HeaderReplHead, strconv.FormatUint(head, 10))
	for _, ln := range lines {
		if _, err := w.Write(ln); err != nil {
			return fmt.Errorf("cluster: write log stream: %w", err)
		}
		if _, err := w.Write([]byte("\n")); err != nil {
			return fmt.Errorf("cluster: write log stream: %w", err)
		}
	}
	return nil
}

// handleReplPull serves journal entries past the requested generation.
// A generation that has rotated out of the log answers 410 Gone; the
// puller falls back to snapshot + reset.
func (n *Node) handleReplPull(w http.ResponseWriter, r *http.Request) error {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		return badRequest("cluster: repl pull: bad from: %v", err)
	}
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		if limit, err = strconv.Atoi(ls); err != nil {
			return badRequest("cluster: repl pull: bad limit: %v", err)
		}
	}
	lines, head, err := n.store.ReplTail(from, limit)
	if errors.Is(err, datastore.ErrReplGap) {
		n.reg.Counter("node_repl_gap_total").Inc()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(wire.HeaderReplHead, strconv.FormatUint(head, 10))
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(wire.ErrorResponse{Error: err.Error()})
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: repl pull: %w", err)
	}
	n.reg.Counter("node_repl_pulls_total").Inc()
	n.reg.Counter("node_repl_entries_served_total").Add(uint64(len(lines)))
	return writeLogLines(w, lines, head)
}

// handleReplApply ingests a batch of shipped log lines. With ?reset=1 the
// batch is a full snapshot replacing all local state, fast-forwarded to
// ?upto=<gen>; otherwise entries append through the normal apply path.
func (n *Node) handleReplApply(w http.ResponseWriter, r *http.Request) error {
	lines, err := readLogLines(r.Body)
	if err != nil {
		return badRequest("%v", err)
	}
	if r.URL.Query().Get("reset") == "1" {
		upto, perr := strconv.ParseUint(r.URL.Query().Get("upto"), 10, 64)
		if perr != nil {
			return badRequest("cluster: repl apply: bad upto: %v", perr)
		}
		if rerr := n.store.ReplReset(lines, upto); rerr != nil {
			return fmt.Errorf("cluster: repl reset: %w", rerr)
		}
		n.reg.Counter("node_repl_resets_total").Inc()
		return writeJSON(w, wire.ReplApplyResponse{Applied: len(lines), Gen: upto})
	}
	applied, gen, torn, err := n.store.ApplyReplEntries(lines)
	if err != nil {
		return fmt.Errorf("cluster: repl apply: %w", err)
	}
	n.reg.Counter("node_repl_entries_applied_total").Add(uint64(applied))
	if torn {
		n.reg.Counter("node_repl_torn_batches_total").Inc()
	}
	return writeJSON(w, wire.ReplApplyResponse{Applied: applied, Gen: gen, Torn: torn})
}

// handleReplSnapshot streams the node's full state as framed insert
// lines (the rotation fallback for pulls answered 410).
func (n *Node) handleReplSnapshot(w http.ResponseWriter, r *http.Request) error {
	lines, head, err := n.store.ReplSnapshotEntries()
	if err != nil {
		return fmt.Errorf("cluster: repl snapshot: %w", err)
	}
	n.reg.Counter("node_repl_snapshots_served_total").Inc()
	return writeLogLines(w, lines, head)
}
