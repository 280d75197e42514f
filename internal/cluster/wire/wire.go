// Package wire defines the JSON codecs of the cluster's internal node
// transport: the request/response shapes a router exchanges with shard
// nodes over HTTP. The protocol deliberately mirrors the datastore's
// primitive surface (insert/find/count/update/remove/aggregate/distinct)
// rather than the public Materials API, so the Fig. 4 URI
// anatomy stays a router-only concern and nodes remain dumb storage.
//
// Number fidelity matters on this boundary: documents round-trip through
// JSON, so a decode must keep integral values int64 and the rest float64,
// as the datastore stores them. JSON becomes a document only through
// document.ParseJSON: every document field is a document.D, which decodes
// itself with it, and document replies (DocsResponse, DocResponse) and
// distinct values are parsed with it in one pass. Encoding needs no rule:
// document.AppendJSON and encoding/json write the same bytes.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

// Version prefixes every transport path; bump on incompatible changes.
const Version = "/internal/v1"

// Endpoint paths under Version. All ops are POST except Health (GET).
const (
	PathInsert      = "/insert"
	PathInsertMany  = "/insertmany"
	PathBulkWrite   = "/bulkwrite"
	PathFind        = "/find"
	PathCount       = "/count"
	PathGet         = "/get"
	PathUpdate      = "/update"
	PathRemove      = "/remove"
	PathAggregate   = "/aggregate"
	PathDistinct    = "/distinct"
	PathEnsureIndex = "/ensureindex"
	PathExplain     = "/explain"
	PathHealth      = "/health"

	// Replication-log endpoints. Pull and Snapshot stream framed journal
	// lines (text/plain, one "%08x <json>" line per record) with the
	// serving node's head generation in HeaderReplHead; Apply accepts the
	// same line stream and reports what was applied. A pull whose `from`
	// generation has rotated out of the log answers 410 Gone — the caller
	// falls back to Snapshot + Apply?reset=1.
	PathReplPull     = "/repl/pull"
	PathReplApply    = "/repl/apply"
	PathReplSnapshot = "/repl/snapshot"
)

// HeaderReplHead carries the serving node's current replication head
// generation on pull/snapshot responses.
const HeaderReplHead = "X-Repl-Head"

// FindOpts is the wire form of datastore.FindOpts.
type FindOpts struct {
	Projection document.D `json:"projection,omitempty"`
	Sort       []string   `json:"sort,omitempty"`
	Skip       int        `json:"skip,omitempty"`
	Limit      int        `json:"limit,omitempty"`
	// MaxStaleness (generations) permits follower reads; routing-only,
	// but it rides the wire form so it lands in result-cache keys.
	MaxStaleness int `json:"max_staleness,omitempty"`
	// Hint forwards the router's chosen-index hint so every shard runs
	// the same plan (see datastore.FindOpts.Hint).
	Hint string `json:"hint,omitempty"`
}

// FromFindOpts converts store options to their wire form (nil passes
// through).
func FromFindOpts(o *datastore.FindOpts) *FindOpts {
	if o == nil {
		return nil
	}
	return &FindOpts{
		Projection:   o.Projection,
		Sort:         o.Sort,
		Skip:         o.Skip,
		Limit:        o.Limit,
		MaxStaleness: o.MaxStaleness,
		Hint:         o.Hint,
	}
}

// ToFindOpts converts wire options back to store options.
func (o *FindOpts) ToFindOpts() *datastore.FindOpts {
	if o == nil {
		return nil
	}
	return &datastore.FindOpts{
		Projection:   o.Projection,
		Sort:         o.Sort,
		Skip:         o.Skip,
		Limit:        o.Limit,
		MaxStaleness: o.MaxStaleness,
		Hint:         o.Hint,
	}
}

// InsertRequest writes one document to a node.
type InsertRequest struct {
	Collection string     `json:"collection"`
	Doc        document.D `json:"doc"`
}

// InsertResponse reports the stored id and the node's resulting
// replication generation (the router's staleness bookkeeping piggybacks
// on write acks).
type InsertResponse struct {
	ID  string `json:"id"`
	Gen uint64 `json:"gen,omitempty"`
}

// InsertManyRequest writes a batch of documents to a node in one call
// (a per-shard sub-batch of a routed InsertMany). The node applies it
// through the datastore's single-lock batch path, so the whole
// sub-batch rides one group-commit fsync.
type InsertManyRequest struct {
	Collection string       `json:"collection"`
	Docs       []document.D `json:"docs"`
}

// InsertManyResponse reports the assigned ids (in input order) and the
// node's resulting replication generation.
type InsertManyResponse struct {
	IDs []string `json:"ids"`
	Gen uint64   `json:"gen,omitempty"`
}

// BulkWriteRequest applies a mixed insert/update/delete batch on a node
// (a per-shard sub-batch of a routed BulkWrite).
type BulkWriteRequest struct {
	Collection string             `json:"collection"`
	Ops        []datastore.BulkOp `json:"ops"`
}

// BulkOpResult is the wire form of one op's outcome; Error is set on
// per-op failure (the sub-batch itself still succeeds).
type BulkOpResult struct {
	ID       string `json:"id,omitempty"`
	Matched  int    `json:"matched,omitempty"`
	Modified int    `json:"modified,omitempty"`
	Removed  int    `json:"removed,omitempty"`
	Error    string `json:"error,omitempty"`
}

// BulkWriteResponse reports a sub-batch's totals, per-op outcomes (in
// input order) and the node's resulting replication generation.
type BulkWriteResponse struct {
	Inserted int            `json:"inserted"`
	Matched  int            `json:"matched"`
	Modified int            `json:"modified"`
	Removed  int            `json:"removed"`
	PerOp    []BulkOpResult `json:"per_op"`
	Gen      uint64         `json:"gen,omitempty"`
}

// FromBulkResult converts a datastore bulk outcome to its wire form.
func FromBulkResult(r datastore.BulkResult, gen uint64) BulkWriteResponse {
	resp := BulkWriteResponse{
		Inserted: r.Inserted,
		Matched:  r.Matched,
		Modified: r.Modified,
		Removed:  r.Removed,
		PerOp:    make([]BulkOpResult, len(r.PerOp)),
		Gen:      gen,
	}
	for i, op := range r.PerOp {
		resp.PerOp[i] = BulkOpResult{ID: op.ID, Matched: op.Matched, Modified: op.Modified, Removed: op.Removed, Error: op.Error}
	}
	return resp
}

// FindRequest runs a filtered read on a node.
type FindRequest struct {
	Collection string     `json:"collection"`
	Filter     document.D `json:"filter,omitempty"`
	Opts       *FindOpts  `json:"opts,omitempty"`
	// Keys asks for each document's merge key beside it (a router asks on
	// a scatter read; see FindReply).
	Keys bool `json:"keys,omitempty"`
}

// FindReply is a find reply kept as the bytes the node sent, for a router
// that forwards documents without parsing them: Docs holds each
// document's span of the body, and Keys each one's merge key
// (datastore.Collection.AppendFindKeys), parsed, when the request asked
// for keys. The body is validated whole (document.SplitDocs); only the
// keys are parsed.
type FindReply struct {
	Docs [][]byte
	Keys [][]any
}

func (r *FindReply) parseJSON(b []byte) error {
	docs, fields, err := document.SplitDocs(b, "docs")
	if err != nil {
		return fmt.Errorf("reply: %w", err)
	}
	r.Docs, r.Keys = docs, nil
	raw, ok := fields["keys"]
	if !ok {
		return nil
	}
	v, err := document.ParseJSON(raw)
	if err != nil {
		return fmt.Errorf("reply keys: %w", err)
	}
	keys, ok := v.([]any)
	if !ok || len(keys) != len(docs) {
		return fmt.Errorf("reply carries %T keys for %d documents", v, len(docs))
	}
	r.Keys = make([][]any, len(keys))
	for i, k := range keys {
		if r.Keys[i], ok = k.([]any); !ok {
			return fmt.Errorf("merge key %d is %T, not an array", i, k)
		}
	}
	return nil
}

// DocsResponse carries a result set as canonical documents.
type DocsResponse struct {
	Docs []document.D `json:"docs"`
}

// NormalizedDocs returns the result set. Parsing already canonicalizes
// the documents; the method stays for callers that time the router's
// reply decoding as DecodeJSONBytes followed by NormalizedDocs.
func (r *DocsResponse) NormalizedDocs() []document.D { return r.Docs }

// AppendDocsReply appends a DocsResponse body — with the newline
// json.Encoder ends it with — whose JSON array of documents appendDocs
// writes (datastore.Collection.AppendFind, or document.AppendJSON). When
// appendDocs also returns a JSON array of merge keys, the body carries it
// as the member FindReply reads: {"docs":[…],"keys":[…]}.
func AppendDocsReply(dst []byte, appendDocs func([]byte) (docs, keys []byte, err error)) ([]byte, error) {
	dst, keys, err := appendDocs(append(dst, `{"docs":`...))
	if err != nil {
		return dst, err
	}
	if keys != nil {
		dst = append(append(dst, `,"keys":`...), keys...)
	}
	return append(dst, "}\n"...), nil
}

func (r DocsResponse) appendJSON(dst []byte) ([]byte, error) {
	docs := r.Docs
	if docs == nil {
		docs = []document.D{}
	}
	return AppendDocsReply(dst, func(dst []byte) ([]byte, []byte, error) {
		dst, err := document.AppendJSON(dst, docs)
		//lint:ignore wrapcheck AppendReply's caller wraps it, naming the reply it was encoding
		return dst, nil, err
	})
}

func (r *DocsResponse) parseJSON(b []byte) error {
	fields, err := parseObject(b)
	if err != nil || fields == nil {
		return err
	}
	switch docs := fields["docs"].(type) {
	case nil:
		r.Docs = nil
	case []any:
		r.Docs = make([]document.D, len(docs))
		for i, d := range docs {
			if r.Docs[i], err = asDoc(d); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("docs is %T, not an array", docs)
	}
	return nil
}

// CountRequest counts matching documents.
type CountRequest struct {
	Collection string     `json:"collection"`
	Filter     document.D `json:"filter,omitempty"`
}

// CountResponse reports a count (also used for Remove, where Gen
// piggybacks the node's post-write replication generation).
type CountResponse struct {
	N   int    `json:"n"`
	Gen uint64 `json:"gen,omitempty"`
}

// GetRequest fetches one document by id.
type GetRequest struct {
	Collection string `json:"collection"`
	ID         string `json:"id"`
}

// DocResponse carries one document (empty Doc = not found, with HTTP 404).
type DocResponse struct {
	Doc document.D `json:"doc,omitempty"`
}

// AppendDocReply appends a DocResponse body, newline included, whose
// non-empty document appendDoc writes (datastore.Collection.AppendID).
func AppendDocReply(dst []byte, appendDoc func([]byte) ([]byte, error)) ([]byte, error) {
	dst, err := appendDoc(append(dst, `{"doc":`...))
	if err != nil {
		return dst, err
	}
	return append(dst, "}\n"...), nil
}

func (r DocResponse) appendJSON(dst []byte) ([]byte, error) {
	if len(r.Doc) == 0 {
		return append(dst, "{}\n"...), nil
	}
	return AppendDocReply(dst, func(dst []byte) ([]byte, error) { return document.AppendJSON(dst, r.Doc) })
}

func (r *DocResponse) parseJSON(b []byte) error {
	fields, err := parseObject(b)
	if err != nil || fields == nil {
		return err
	}
	r.Doc, err = asDoc(fields["doc"])
	return err
}

// parseObject parses a reply body that must be a JSON object (or null,
// which, as for encoding/json, leaves the reply unchanged).
func parseObject(b []byte) (map[string]any, error) {
	v, err := document.ParseJSON(b)
	if err != nil {
		return nil, fmt.Errorf("reply: %w", err)
	}
	if v == nil {
		return nil, nil
	}
	fields, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("reply is %T, not an object", v)
	}
	return fields, nil
}

func asDoc(v any) (document.D, error) {
	switch d := v.(type) {
	case nil:
		return nil, nil
	case map[string]any:
		return d, nil
	}
	return nil, fmt.Errorf("document is %T, not an object", v)
}

// UpdateRequest applies an update on a node.
type UpdateRequest struct {
	Collection string     `json:"collection"`
	Filter     document.D `json:"filter,omitempty"`
	Update     document.D `json:"update"`
	Many       bool       `json:"many"`
}

// UpdateResponse reports what the update did, plus the node's resulting
// replication generation.
type UpdateResponse struct {
	Matched  int    `json:"matched"`
	Modified int    `json:"modified"`
	Gen      uint64 `json:"gen,omitempty"`
}

// RemoveRequest deletes matching documents.
type RemoveRequest struct {
	Collection string     `json:"collection"`
	Filter     document.D `json:"filter,omitempty"`
}

// AggregateRequest runs a (pre-sanitized) pipeline on a node. With
// Partial set, the pipeline ends in a splittable $group or $count
// (datastore.Splittable) and the node answers with that stage's partial
// state rows (datastore.AggregatePartial) for the router to combine.
type AggregateRequest struct {
	Collection string       `json:"collection"`
	Pipeline   []document.D `json:"pipeline"`
	Partial    bool         `json:"partial,omitempty"`
}

// DistinctRequest lists distinct values of a path.
type DistinctRequest struct {
	Collection string     `json:"collection"`
	Path       string     `json:"path"`
	Filter     document.D `json:"filter,omitempty"`
}

// DistinctResponse carries the distinct values.
type DistinctResponse struct {
	Values []any `json:"values"`
}

func (r *DistinctResponse) parseJSON(b []byte) error {
	fields, err := parseObject(b)
	if err != nil || fields == nil {
		return err
	}
	switch vals := fields["values"].(type) {
	case nil:
		r.Values = nil
	case []any:
		r.Values = vals
	default:
		return fmt.Errorf("values is %T, not an array", vals)
	}
	return nil
}

// EnsureIndexRequest creates a secondary index over the given dotted
// paths on a node.
type EnsureIndexRequest struct {
	Collection string   `json:"collection"`
	Paths      []string `json:"paths,omitempty"`
}

// ExplainRequest asks a node for its planner's decision on a query.
type ExplainRequest struct {
	Collection string     `json:"collection"`
	Filter     document.D `json:"filter,omitempty"`
	Opts       *FindOpts  `json:"opts,omitempty"`
}

// OKResponse acknowledges a side-effect-only request. Gen is the node's
// replication generation after it (index creation is a logged write).
type OKResponse struct {
	OK  bool   `json:"ok"`
	Gen uint64 `json:"gen,omitempty"`
}

// HealthResponse is a node's GET /internal/v1/health report. AppliedGen
// piggybacks the node's replication generation on every heartbeat so the
// router can route bounded-staleness reads without extra round-trips.
type HealthResponse struct {
	OK          bool   `json:"ok"`
	NodeID      string `json:"node_id"`
	Collections int    `json:"collections"`
	Documents   int    `json:"documents"`
	AppliedGen  uint64 `json:"applied_gen,omitempty"`
}

// ReplApplyResponse reports what a follower did with a shipped batch of
// log lines. Torn means a line failed its checksum mid-batch: the good
// prefix was applied and the shipper should re-pull from Gen.
type ReplApplyResponse struct {
	Applied int    `json:"applied"`
	Gen     uint64 `json:"gen"`
	Torn    bool   `json:"torn,omitempty"`
}

// ErrorResponse is the non-2xx body of every transport endpoint.
type ErrorResponse struct {
	Error string `json:"error"`
}

// AppendReply appends the body a node answers with: v's JSON encoding
// and a newline, the bytes json.Encoder writes. DocsResponse and
// DocResponse are appended with document.AppendJSON; other replies are
// small and go through encoding/json.
func AppendReply(dst []byte, v any) ([]byte, error) {
	switch r := v.(type) {
	case DocsResponse:
		return r.appendJSON(dst)
	case DocResponse:
		return r.appendJSON(dst)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("wire: encode: %w", err)
	}
	return append(append(dst, b...), '\n'), nil
}

// DecodeJSON decodes a small request or acknowledgement; its documents
// are document.D fields, which parse themselves with document.ParseJSON.
func DecodeJSON(r io.Reader, v any) error {
	if err := json.NewDecoder(r).Decode(v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// DecodeJSONBytes is DecodeJSON over a byte slice. A *DocsResponse,
// *DocResponse or *DistinctResponse is parsed in one pass with
// document.ParseJSON instead, and a *FindReply is split into document
// spans (it keeps b).
func DecodeJSONBytes(b []byte, v any) error {
	if r, ok := v.(interface{ parseJSON([]byte) error }); ok {
		if err := r.parseJSON(b); err != nil {
			return fmt.Errorf("wire: decode: %w", err)
		}
		return nil
	}
	return DecodeJSON(bytes.NewReader(b), v)
}
