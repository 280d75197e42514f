package restapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"matproj/internal/crystal"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
	"matproj/internal/queryengine"
)

// propertyFields maps API property names to stored material fields.
var propertyFields = map[string]string{
	"energy":          "final_energy",
	"energy_per_atom": "e_per_atom",
	"band_gap":        "band_gap",
	"bandgap":         "band_gap",
	"density":         "density",
	"structure":       "structure",
	"formula":         "pretty_formula",
	"nsites":          "nsites",
	"nelements":       "nelements",
	"nelectrons":      "nelectrons",
	"elements":        "elements",
	"functional":      "functional",
}

// DefaultMaxBodyBytes caps request bodies when Server.MaxBodyBytes is
// left zero: large enough for bulk ingest batches, small enough that a
// single request cannot balloon server memory.
const DefaultMaxBodyBytes = 8 << 20

// Server is the Materials API HTTP handler.
type Server struct {
	Engine *queryengine.Engine
	Auth   *Auth
	Store  *datastore.Store
	// MaterialsCollection is the logical collection served (default
	// "materials").
	MaterialsCollection string
	// MaxBodyBytes bounds every request body (default
	// DefaultMaxBodyBytes; negative disables the cap). Oversized bodies
	// get a 413 in the standard envelope and count in
	// http.body_rejected. Set before serving traffic.
	MaxBodyBytes int64
	mux          *http.ServeMux
	start        time.Time

	// Live observability (nil when not wired via Observe). The
	// middleware records per-endpoint status and latency; /metrics and
	// /status expose the registry, slow-query log, and store totals.
	obsReg atomic.Pointer[obs.Registry]
	obsTr  atomic.Pointer[obs.Tracer]
}

// NewServer builds the API server over an engine and store.
func NewServer(engine *queryengine.Engine, auth *Auth, store *datastore.Store) *Server {
	s := &Server{
		Engine:              engine,
		Auth:                auth,
		Store:               store,
		MaterialsCollection: "materials",
		//lint:ignore clockdiscipline /metrics uptime reports real wall-clock age by design
		start: time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /auth/signup", s.instrument("signup", s.handleSignup))
	mux.HandleFunc("GET /rest/v1/materials/", s.instrument("materials", s.handleMaterials))
	mux.HandleFunc("POST /rest/v1/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("POST /rest/v1/insert", s.instrument("insert", s.handleInsert))
	mux.HandleFunc("POST /rest/v1/insertMany", s.instrument("insertMany", s.handleInsertMany))
	mux.HandleFunc("POST /rest/v1/bulkWrite", s.instrument("bulkWrite", s.handleBulkWrite))
	mux.HandleFunc("POST /rest/v1/aggregate", s.instrument("aggregate", s.handleAggregate))
	mux.HandleFunc("GET /rest/v1/bandstructure/", s.instrument("bandstructure", s.handleDerived("bandstructures")))
	mux.HandleFunc("GET /rest/v1/xrd/", s.instrument("xrd", s.handleDerived("xrd")))
	mux.HandleFunc("GET /rest/v1/batteries", s.instrument("batteries", s.handleBatteries))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /status", s.handleStatus)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// apiResponse is the standard envelope.
type apiResponse struct {
	Valid    bool   `json:"valid_response"`
	Error    string `json:"error,omitempty"`
	Response []any  `json:"response"`
	NResults int    `json:"num_results"`
}

// appendJSON appends the envelope as json.Encoder writes it — fields in
// declaration order, error omitted when empty, a trailing newline — with
// the rows encoded by document.AppendJSON.
func (resp apiResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"valid_response":`...)
	dst = strconv.AppendBool(dst, resp.Valid)
	var err error
	if resp.Error != "" {
		if dst, err = document.AppendJSON(append(dst, `,"error":`...), resp.Error); err != nil {
			return dst, fmt.Errorf("restapi: encode response: %w", err)
		}
	}
	if dst, err = document.AppendJSON(append(dst, `,"response":`...), resp.Response); err != nil {
		return dst, fmt.Errorf("restapi: encode response: %w", err)
	}
	dst = strconv.AppendInt(append(dst, `,"num_results":`...), int64(resp.NResults), 10)
	return append(dst, "}\n"...), nil
}

func writeJSON(w http.ResponseWriter, status int, resp apiResponse) {
	if resp.Response == nil {
		resp.Response = []any{}
	}
	resp.NResults = len(resp.Response)
	body, err := resp.appendJSON(nil)
	if err != nil {
		// A row that cannot be encoded (a NaN in a document) fails the
		// request rather than sending a truncated body.
		status = http.StatusInternalServerError
		body, _ = apiResponse{Error: err.Error(), Response: []any{}}.appendJSON(nil)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiResponse{Valid: false, Error: fmt.Sprintf(format, args...)})
}

// writeDecodeErr maps a request-body decode failure to the envelope: a
// body that blew past MaxBodyBytes is 413 Content Too Large (and counts
// in http.body_rejected); anything else is plain bad JSON.
func (s *Server) writeDecodeErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.obsReg.Load().Counter("http.body_rejected").Inc()
		writeErr(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d byte limit", tooBig.Limit)
		return
	}
	writeErr(w, http.StatusBadRequest, "invalid JSON body: %v", err)
}

// maxBodyBytes resolves the configured body cap: zero means the
// default, negative disables it.
func (s *Server) maxBodyBytes() int64 {
	if s.MaxBodyBytes == 0 {
		return DefaultMaxBodyBytes
	}
	if s.MaxBodyBytes < 0 {
		return 0
	}
	return s.MaxBodyBytes
}

// authenticate resolves the API key on a request. Empty email plus false
// means the response has already been written.
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.Header.Get("X-API-KEY")
	if key == "" {
		key = r.URL.Query().Get("API_KEY")
	}
	email, ok := s.Auth.Lookup(key)
	if !ok {
		s.obsReg.Load().Counter("http.auth_failures").Inc()
		writeErr(w, http.StatusUnauthorized, "missing or invalid API key")
		return "", false
	}
	return email, true
}

func (s *Server) handleSignup(w http.ResponseWriter, r *http.Request) {
	provider := r.URL.Query().Get("provider")
	email := r.URL.Query().Get("email")
	key, err := s.Auth.Signup(provider, email)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, apiResponse{Valid: true,
		Response: []any{map[string]any{"api_key": key, "email": email}}})
}

// handleMaterials serves /rest/v1/materials/{identifier}/vasp[/{property}]
// — Fig. 4's URI anatomy: preamble, version, application id (identifier),
// datatype (vasp), property.
func (s *Server) handleMaterials(w http.ResponseWriter, r *http.Request) {
	email, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/rest/v1/materials/")
	parts := strings.Split(strings.Trim(rest, "/"), "/")
	if len(parts) < 2 || parts[1] != "vasp" {
		writeErr(w, http.StatusBadRequest, "expected /rest/v1/materials/{id}/vasp[/{property}]")
		return
	}
	identifier := parts[0]
	property := ""
	if len(parts) >= 3 {
		property = parts[2]
	}
	filter, err := identifierFilter(identifier)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.replyNotModified(w, r, s.MaterialsCollection) {
		return
	}
	docs, err := s.Engine.Find(email, s.MaterialsCollection, filter, stalenessOpts(r))
	if err != nil {
		s.writeEngineErr(w, err)
		return
	}
	if len(docs) == 0 {
		writeErr(w, http.StatusNotFound, "no materials match %q", identifier)
		return
	}
	var out []any
	for _, d := range docs {
		row := map[string]any{"material_id": d["_id"]}
		if property == "" || property == "all" {
			for name, field := range propertyFields {
				if v, ok := d.Get(field); ok {
					row[name] = v
				}
			}
		} else {
			field, known := propertyFields[property]
			if !known {
				writeErr(w, http.StatusBadRequest, "unknown property %q", property)
				return
			}
			v, ok := d.Get(field)
			if !ok {
				continue
			}
			row[property] = v
		}
		out = append(out, row)
	}
	writeJSON(w, http.StatusOK, apiResponse{Valid: true, Response: out})
}

// identifierFilter interprets a material identifier: a material id
// ("mat-..."), a chemical system ("Li-Fe-O"), or a formula ("Fe2O3").
func identifierFilter(identifier string) (document.D, error) {
	switch {
	case strings.HasPrefix(identifier, "mat-"):
		return document.D{"_id": identifier}, nil
	case strings.Contains(identifier, "-"):
		// Chemical-system search: materials whose element set is a subset
		// of the named system (Li-Fe-O includes Fe-O and elemental Fe
		// materials, matching the production API's chemsys semantics).
		var set []any
		for _, e := range strings.Split(identifier, "-") {
			if !crystal.IsElement(e) {
				return nil, fmt.Errorf("restapi: unknown element %q in chemical system", e)
			}
			set = append(set, e)
		}
		return document.D{
			"elements": document.D{"$exists": true},
			"$nor": []any{map[string]any{
				"elements": map[string]any{"$elemMatch": map[string]any{"$nin": set}},
			}},
		}, nil
	default:
		comp, err := crystal.ParseFormula(identifier)
		if err != nil {
			return nil, fmt.Errorf("restapi: identifier %q is neither id, chemsys, nor formula", identifier)
		}
		return document.D{"pretty_formula": comp.Formula()}, nil
	}
}

// queryRequest is the POST /rest/v1/query body: criteria in the Mongo
// query language plus an optional property projection, mirroring the
// real Materials API's query endpoint. MaxStaleness (generations)
// opts the read into bounded-staleness follower routing on a cluster:
// the answer may lag the newest acknowledged write by at most that
// many write generations. 0 keeps the read on primaries.
// Explain flips the request into plan-only mode: the response carries
// the query planner's decision (chosen index, bounds, residual filter)
// instead of documents — equivalent to putting $explain in the criteria.
// Hint names an index the planner must use (diagnostics; the result set
// is identical either way).
type queryRequest struct {
	Criteria     document.D `json:"criteria"`
	Properties   []string   `json:"properties"`
	Limit        int        `json:"limit"`
	Skip         int        `json:"skip"`
	Sort         []string   `json:"sort"`
	MaxStaleness int        `json:"max_staleness"`
	Explain      bool       `json:"explain"`
	Hint         string     `json:"hint"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	email, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeDecodeErr(w, err)
		return
	}
	opts := &datastore.FindOpts{Limit: req.Limit, Skip: req.Skip, Sort: req.Sort, MaxStaleness: req.MaxStaleness, Hint: req.Hint}
	if len(req.Properties) > 0 {
		proj := document.D{}
		for _, p := range req.Properties {
			field := p
			if f, known := propertyFields[p]; known {
				field = f
			}
			proj[field] = 1
		}
		opts.Projection = proj
	}
	if req.Explain {
		plan, err := s.Engine.Explain(email, s.MaterialsCollection, req.Criteria, opts)
		if err != nil {
			s.writeEngineErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, apiResponse{Valid: true, Response: []any{map[string]any(plan)}})
		return
	}
	// The engine appends the result's JSON array straight into the
	// envelope appendJSON would write around it.
	body, n, err := s.Engine.AppendFind([]byte(`{"valid_response":true,"response":`), email, s.MaterialsCollection, req.Criteria, opts)
	if err != nil {
		s.writeEngineErr(w, err)
		return
	}
	body = strconv.AppendInt(append(body, `,"num_results":`...), int64(n), 10)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, "}\n"...))
}

// stalenessOpts reads the max_staleness query parameter (generations)
// from a GET request into find options; nil when absent or invalid, so
// the default stays an exact primary read.
func stalenessOpts(r *http.Request) *datastore.FindOpts {
	raw := r.URL.Query().Get("max_staleness")
	if raw == "" {
		return nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 {
		return nil
	}
	return &datastore.FindOpts{MaxStaleness: k}
}

// insertRequest is the POST /rest/v1/insert body. Collection defaults
// to the server's materials collection.
type insertRequest struct {
	Collection string     `json:"collection"`
	Doc        document.D `json:"doc"`
}

// handleInsert writes one document through the engine (and so through
// the router on a cluster). It exists for load harnesses and ingest
// tooling — the staleness-probe writer in the failover smoke uses it —
// and requires the same API-key auth as every other endpoint.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	email, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeDecodeErr(w, err)
		return
	}
	if len(req.Doc) == 0 {
		writeErr(w, http.StatusBadRequest, "doc required")
		return
	}
	collection := req.Collection
	if collection == "" {
		collection = s.MaterialsCollection
	}
	id, err := s.Engine.Insert(email, collection, req.Doc)
	if err != nil {
		s.writeEngineErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, apiResponse{Valid: true,
		Response: []any{map[string]any{"_id": id}}})
}

// insertManyRequest is the POST /rest/v1/insertMany body: a document
// batch written in one call. The whole batch rides a single collection
// lock and (on a durable store) a single group-commit fsync per shard,
// which is the fast path for bulk ingest.
type insertManyRequest struct {
	Collection string       `json:"collection"`
	Docs       []document.D `json:"docs"`
}

// handleInsertMany writes a batch of documents atomically per shard.
// The response rows are {"_id": ...} in input order.
func (s *Server) handleInsertMany(w http.ResponseWriter, r *http.Request) {
	email, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	var req insertManyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeDecodeErr(w, err)
		return
	}
	if len(req.Docs) == 0 {
		writeErr(w, http.StatusBadRequest, "docs required")
		return
	}
	collection := req.Collection
	if collection == "" {
		collection = s.MaterialsCollection
	}
	ids, err := s.Engine.InsertMany(email, collection, req.Docs)
	if err != nil {
		s.writeEngineErr(w, err)
		return
	}
	out := make([]any, len(ids))
	for i, id := range ids {
		out[i] = map[string]any{"_id": id}
	}
	writeJSON(w, http.StatusOK, apiResponse{Valid: true, Response: out})
}

// bulkWriteRequest is the POST /rest/v1/bulkWrite body: a mixed batch
// of insert/updateOne/updateMany/delete operations applied
// continue-on-error, with a per-op outcome row in the response.
type bulkWriteRequest struct {
	Collection string             `json:"collection"`
	Ops        []datastore.BulkOp `json:"ops"`
}

// handleBulkWrite applies a mixed write batch. Each response row mirrors
// one input op: {"op", "id"?, "matched", "modified", "removed",
// "error"?}. The envelope stays valid even when individual ops fail —
// callers inspect rows for per-op errors.
func (s *Server) handleBulkWrite(w http.ResponseWriter, r *http.Request) {
	email, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	var req bulkWriteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeDecodeErr(w, err)
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, "ops required")
		return
	}
	collection := req.Collection
	if collection == "" {
		collection = s.MaterialsCollection
	}
	res, err := s.Engine.BulkWrite(email, collection, req.Ops)
	if err != nil {
		s.writeEngineErr(w, err)
		return
	}
	out := make([]any, len(res.PerOp))
	for i, op := range res.PerOp {
		row := map[string]any{
			"op":       req.Ops[i].Op,
			"matched":  op.Matched,
			"modified": op.Modified,
			"removed":  op.Removed,
		}
		if op.ID != "" {
			row["id"] = op.ID
		}
		if op.Error != "" {
			row["error"] = op.Error
		}
		out[i] = row
	}
	writeJSON(w, http.StatusOK, apiResponse{Valid: true, Response: out})
}

// aggregateRequest is the POST /rest/v1/aggregate body.
type aggregateRequest struct {
	Pipeline []document.D `json:"pipeline"`
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	email, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	var req aggregateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeDecodeErr(w, err)
		return
	}
	if len(req.Pipeline) == 0 {
		writeErr(w, http.StatusBadRequest, "pipeline required")
		return
	}
	docs, err := s.Engine.Aggregate(email, s.MaterialsCollection, req.Pipeline)
	if err != nil {
		s.writeEngineErr(w, err)
		return
	}
	out := make([]any, len(docs))
	for i, d := range docs {
		out[i] = map[string]any(d)
	}
	writeJSON(w, http.StatusOK, apiResponse{Valid: true, Response: out})
}

// handleDerived serves per-material derived-property collections
// (bandstructures, xrd) by material id.
func (s *Server) handleDerived(collection string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		email, ok := s.authenticate(w, r)
		if !ok {
			return
		}
		// Path prefixes registered: /rest/v1/bandstructure/, /rest/v1/xrd/
		// — the singular of the collection name.
		prefix := "/rest/v1/" + strings.TrimSuffix(collection, "s") + "/"
		id := strings.Trim(strings.TrimPrefix(r.URL.Path, prefix), "/")
		if id == "" {
			writeErr(w, http.StatusBadRequest, "material id required")
			return
		}
		if s.replyNotModified(w, r, collection) {
			return
		}
		docs, err := s.Engine.Find(email, collection, document.D{"material_id": id}, stalenessOpts(r))
		if err != nil {
			s.writeEngineErr(w, err)
			return
		}
		if len(docs) == 0 {
			writeErr(w, http.StatusNotFound, "no %s for %q", collection, id)
			return
		}
		out := make([]any, len(docs))
		for i, d := range docs {
			out[i] = map[string]any(d)
		}
		writeJSON(w, http.StatusOK, apiResponse{Valid: true, Response: out})
	}
}

func (s *Server) handleBatteries(w http.ResponseWriter, r *http.Request) {
	email, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	if s.replyNotModified(w, r, "batteries") {
		return
	}
	filter := document.D{}
	if ion := r.URL.Query().Get("ion"); ion != "" {
		filter["working_ion"] = ion
	}
	docs, err := s.Engine.Find(email, "batteries", filter, stalenessOpts(r))
	if err != nil {
		s.writeEngineErr(w, err)
		return
	}
	out := make([]any, len(docs))
	for i, d := range docs {
		out[i] = map[string]any(d)
	}
	writeJSON(w, http.StatusOK, apiResponse{Valid: true, Response: out})
}

// etagFor renders a collection's cache validator: its name plus its
// current write generation. Any acknowledged write to the collection
// changes the generation (on a cluster, the per-shard sum), so a
// matching tag proves the client's cached body is still current.
func (s *Server) etagFor(collection string) string {
	return fmt.Sprintf("\"%s-g%d\"", collection, s.Engine.Generation(collection))
}

// replyNotModified stamps the generation-derived ETag on a GET response
// and short-circuits with 304 Not Modified when the request's
// If-None-Match still matches. Callers return immediately when it
// reports true. Weak validators (W/ prefix) compare equal: the body is
// deterministic for a generation, but that guarantee is all a weak
// match needs.
func (s *Server) replyNotModified(w http.ResponseWriter, r *http.Request, collection string) bool {
	tag := s.etagFor(collection)
	w.Header().Set("ETag", tag)
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimPrefix(strings.TrimSpace(cand), "W/")
		if cand == tag || cand == "*" {
			s.obsReg.Load().Counter("http.not_modified").Inc()
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

func (s *Server) writeEngineErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, queryengine.ErrRateLimited):
		writeErr(w, http.StatusTooManyRequests, "rate limit exceeded")
	case errors.Is(err, datastore.ErrNotFound):
		writeErr(w, http.StatusNotFound, "not found")
	case errors.Is(err, queryengine.ErrUnavailable):
		// Storage-tier outage (e.g. a shard with no healthy members): a
		// retryable 503, not a caller error.
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}
