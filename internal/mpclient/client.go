// Package mpclient is the Go analogue of pymatgen's Materials API
// client (the MPRester): a typed HTTP client over the REST interface
// that lets external analysis code fetch remote data and combine it with
// local computation — the "natural and powerful interface for jointly
// analyzing local and remote data" of §III-D3. The flagship helper,
// Entries, pulls a chemical system from the API in the form the local
// phase-diagram builder consumes.
package mpclient

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"

	"matproj/internal/analysis"
	"matproj/internal/crystal"
	"matproj/internal/document"
)

// Client talks to a Materials API server.
type Client struct {
	BaseURL string
	APIKey  string
	// HTTP overrides the transport (tests); nil uses http.DefaultClient.
	HTTP *http.Client
}

// New returns a client for the given server and key.
func New(baseURL, apiKey string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), APIKey: apiKey}
}

// Signup obtains an API key through the delegated third-party flow and
// returns a ready client.
func Signup(baseURL, provider, email string) (*Client, error) {
	u := strings.TrimRight(baseURL, "/") + "/auth/signup?provider=" +
		url.QueryEscape(provider) + "&email=" + url.QueryEscape(email)
	resp, err := http.Post(u, "", nil)
	if err != nil {
		return nil, fmt.Errorf("mpclient: signup: %w", err)
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("mpclient: signup decode: %w", err)
	}
	if !env.Valid || len(env.Response) == 0 {
		return nil, fmt.Errorf("mpclient: signup rejected: %s", env.Error)
	}
	key, _ := env.Response[0]["api_key"].(string)
	if key == "" {
		return nil, fmt.Errorf("mpclient: signup returned no key")
	}
	return New(baseURL, key), nil
}

// envelope is the API's standard response wrapper. Its rows decode as
// documents, so numbers come back as the store holds them: int64 for an
// integer, with every digit, and float64 otherwise.
type envelope struct {
	Valid    bool         `json:"valid_response"`
	Error    string       `json:"error"`
	Response []document.D `json:"response"`
	NResults int          `json:"num_results"`
}

// APIError reports a non-2xx response. Retryable distinguishes transient
// server-side conditions — an unhealthy cluster answering 503 while a
// replica is promoted, a router-side 502/504 — from caller errors: a
// retryable error means the same request may succeed if simply resent.
type APIError struct {
	Status    int
	Message   string
	Retryable bool
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Retryable {
		return fmt.Sprintf("mpclient: HTTP %d (retryable): %s", e.Status, e.Message)
	}
	return fmt.Sprintf("mpclient: HTTP %d: %s", e.Status, e.Message)
}

// IsRetryable reports whether err is (or wraps) a transient APIError that
// is worth resending.
func IsRetryable(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Retryable
}

// retryableStatus classifies the transient HTTP statuses: the gateway
// errors a router or an unhealthy cluster emits.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) do(method, path string, body []byte) (*envelope, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-API-KEY", c.APIKey)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("mpclient: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("mpclient: read: %w", err)
	}
	var env envelope
	decodeErr := json.Unmarshal(raw, &env)
	if resp.StatusCode != http.StatusOK {
		// Non-2xx first: a 503 from an LB or unhealthy router may carry a
		// non-JSON body, and the status — not the decode failure — is the
		// signal the caller needs.
		msg := env.Error
		if decodeErr != nil || msg == "" {
			msg = strings.TrimSpace(string(raw))
			if msg == "" {
				msg = http.StatusText(resp.StatusCode)
			}
		}
		return nil, &APIError{
			Status:    resp.StatusCode,
			Message:   msg,
			Retryable: retryableStatus(resp.StatusCode),
		}
	}
	if decodeErr != nil {
		return nil, fmt.Errorf("mpclient: decode: %w", decodeErr)
	}
	return &env, nil
}

// Property fetches one property for an identifier (material id, formula,
// or chemical system) — the Fig. 4 call. One row per matching material.
func (c *Client) Property(identifier, property string) ([]document.D, error) {
	env, err := c.do(http.MethodGet, "/rest/v1/materials/"+url.PathEscape(identifier)+"/vasp/"+url.PathEscape(property), nil)
	if err != nil {
		return nil, err
	}
	return env.Response, nil
}

// Energy is the canonical example: the computed energy of a compound.
func (c *Client) Energy(identifier string) (float64, error) {
	rows, err := c.Property(identifier, "energy")
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("mpclient: no energy for %q", identifier)
	}
	e, ok := rows[0].GetFloat("energy")
	if !ok {
		return 0, fmt.Errorf("mpclient: malformed energy row %v", rows[0])
	}
	return e, nil
}

// Materials fetches all properties for an identifier.
func (c *Client) Materials(identifier string) ([]document.D, error) {
	env, err := c.do(http.MethodGet, "/rest/v1/materials/"+url.PathEscape(identifier)+"/vasp/all", nil)
	if err != nil {
		return nil, err
	}
	return env.Response, nil
}

// Query runs a structured query: Mongo-language criteria plus an
// optional property projection and limit.
func (c *Client) Query(criteria document.D, properties []string, limit int) ([]document.D, error) {
	payload := map[string]any{"criteria": map[string]any(criteria), "limit": limit}
	if len(properties) > 0 {
		payload["properties"] = properties
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	env, err := c.do(http.MethodPost, "/rest/v1/query", body)
	if err != nil {
		return nil, err
	}
	return env.Response, nil
}

// QueryOpts refines QueryWith beyond criteria and projection.
type QueryOpts struct {
	// Limit caps returned rows (0 = no cap).
	Limit int
	// Skip drops the first N rows after sorting.
	Skip int
	// Sort lists field names; a "-" prefix means descending.
	Sort []string
	// MaxStaleness permits the router to serve the read from a replica
	// at most this many generations behind the freshest known member.
	// 0 keeps the default primary-first routing.
	MaxStaleness int
}

// QueryWith runs a structured query with full read options, including
// the bounded-staleness hint that lets the cluster route the read to a
// follower.
func (c *Client) QueryWith(criteria document.D, properties []string, opts QueryOpts) ([]document.D, error) {
	payload := map[string]any{"criteria": map[string]any(criteria), "limit": opts.Limit}
	if len(properties) > 0 {
		payload["properties"] = properties
	}
	if opts.Skip > 0 {
		payload["skip"] = opts.Skip
	}
	if len(opts.Sort) > 0 {
		payload["sort"] = opts.Sort
	}
	if opts.MaxStaleness > 0 {
		payload["max_staleness"] = opts.MaxStaleness
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	env, err := c.do(http.MethodPost, "/rest/v1/query", body)
	if err != nil {
		return nil, err
	}
	return env.Response, nil
}

// Insert stores one document in the named collection (empty means the
// materials collection) and returns its assigned id.
func (c *Client) Insert(collection string, doc map[string]any) (string, error) {
	body, err := json.Marshal(map[string]any{"collection": collection, "doc": doc})
	if err != nil {
		return "", err
	}
	env, err := c.do(http.MethodPost, "/rest/v1/insert", body)
	if err != nil {
		return "", err
	}
	if len(env.Response) == 0 {
		return "", fmt.Errorf("mpclient: insert returned no id")
	}
	id, _ := env.Response[0]["_id"].(string)
	if id == "" {
		return "", fmt.Errorf("mpclient: insert returned no id")
	}
	return id, nil
}

// InsertMany stores a batch of documents in one request (empty
// collection means the materials collection) and returns their assigned
// ids in input order. The server applies the batch under one collection
// lock per shard, so bulk ingest pays one durable commit per shard
// instead of one per document.
func (c *Client) InsertMany(collection string, docs []map[string]any) ([]string, error) {
	body, err := json.Marshal(map[string]any{"collection": collection, "docs": docs})
	if err != nil {
		return nil, err
	}
	env, err := c.do(http.MethodPost, "/rest/v1/insertMany", body)
	if err != nil {
		return nil, err
	}
	if len(env.Response) != len(docs) {
		return nil, fmt.Errorf("mpclient: insertMany returned %d ids for %d docs", len(env.Response), len(docs))
	}
	ids := make([]string, len(env.Response))
	for i, row := range env.Response {
		id, _ := row["_id"].(string)
		if id == "" {
			return nil, fmt.Errorf("mpclient: insertMany row %d has no id", i)
		}
		ids[i] = id
	}
	return ids, nil
}

// BulkOp is one operation in a BulkWrite batch. Op is "insert",
// "updateOne", "updateMany", or "delete"; Doc applies to inserts,
// Filter/Update to the rest.
type BulkOp struct {
	Op     string         `json:"op"`
	Doc    map[string]any `json:"doc,omitempty"`
	Filter map[string]any `json:"filter,omitempty"`
	Update map[string]any `json:"update,omitempty"`
}

// BulkOpResult is the outcome of one BulkWrite operation. Error is set
// when that op failed (the batch continues past per-op failures).
type BulkOpResult struct {
	ID       string
	Matched  int
	Modified int
	Removed  int
	Error    string
}

// BulkWrite applies a mixed insert/update/delete batch in one request
// and returns one outcome per op, in input order.
func (c *Client) BulkWrite(collection string, ops []BulkOp) ([]BulkOpResult, error) {
	body, err := json.Marshal(map[string]any{"collection": collection, "ops": ops})
	if err != nil {
		return nil, err
	}
	env, err := c.do(http.MethodPost, "/rest/v1/bulkWrite", body)
	if err != nil {
		return nil, err
	}
	if len(env.Response) != len(ops) {
		return nil, fmt.Errorf("mpclient: bulkWrite returned %d rows for %d ops", len(env.Response), len(ops))
	}
	out := make([]BulkOpResult, len(env.Response))
	for i, row := range env.Response {
		r := BulkOpResult{}
		r.ID, _ = row["id"].(string)
		r.Error, _ = row["error"].(string)
		r.Matched = intField(row, "matched")
		r.Modified = intField(row, "modified")
		r.Removed = intField(row, "removed")
		out[i] = r
	}
	return out, nil
}

// intField reads an integer out of an envelope row as an int.
func intField(row document.D, key string) int {
	n, _ := row.GetInt(key)
	return int(n)
}

// Aggregate runs a sanitized aggregation pipeline server-side.
func (c *Client) Aggregate(pipeline []document.D) ([]document.D, error) {
	body, err := json.Marshal(map[string]any{"pipeline": pipeline})
	if err != nil {
		return nil, err
	}
	env, err := c.do(http.MethodPost, "/rest/v1/aggregate", body)
	if err != nil {
		return nil, err
	}
	return env.Response, nil
}

// BandStructure fetches a material's band structure.
func (c *Client) BandStructure(materialID string) (document.D, error) {
	env, err := c.do(http.MethodGet, "/rest/v1/bandstructure/"+url.PathEscape(materialID), nil)
	if err != nil {
		return nil, err
	}
	if len(env.Response) == 0 {
		return nil, fmt.Errorf("mpclient: no band structure for %q", materialID)
	}
	return env.Response[0], nil
}

// XRD fetches a material's diffraction pattern document.
func (c *Client) XRD(materialID string) (document.D, error) {
	env, err := c.do(http.MethodGet, "/rest/v1/xrd/"+url.PathEscape(materialID), nil)
	if err != nil {
		return nil, err
	}
	if len(env.Response) == 0 {
		return nil, fmt.Errorf("mpclient: no XRD for %q", materialID)
	}
	return env.Response[0], nil
}

// Batteries lists screened electrodes, optionally filtered by working
// ion.
func (c *Client) Batteries(ion string) ([]document.D, error) {
	path := "/rest/v1/batteries"
	if ion != "" {
		path += "?ion=" + url.QueryEscape(ion)
	}
	env, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	return env.Response, nil
}

// Entries fetches every material whose elements lie inside the given
// chemical system and converts them to phase-diagram entries — remote
// data feeding local thermodynamic analysis, pymatgen-style. Elemental
// references absent from the remote corpus are synthesized from the
// shared elemental energy model via refEnergy (pass nil to require all
// references remotely).
func (c *Client) Entries(system []string, refEnergy func(symbol string) float64) ([]analysis.Entry, error) {
	if len(system) == 0 {
		return nil, fmt.Errorf("mpclient: empty chemical system")
	}
	sorted := append([]string(nil), system...)
	sort.Strings(sorted)
	set := make([]any, len(sorted))
	for i, s := range sorted {
		if !crystal.IsElement(s) {
			return nil, fmt.Errorf("mpclient: unknown element %q", s)
		}
		set[i] = s
	}
	// All materials whose element list is a subset of the system: query
	// elements ∈ system and verify client-side (the API has no $setIsSubset).
	docs, err := c.Query(document.D{"elements": document.D{"$in": set}}, nil, 0)
	if err != nil {
		return nil, err
	}
	inSystem := func(elems []any) bool {
		for _, e := range elems {
			found := false
			for _, s := range sorted {
				if e == s {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	var entries []analysis.Entry
	have := map[string]bool{}
	for _, d := range docs {
		if !inSystem(d.GetArray("elements")) {
			continue
		}
		f := d.GetString("pretty_formula")
		comp, err := crystal.ParseFormula(f)
		if err != nil {
			continue
		}
		e, ok := d.GetFloat("final_energy")
		if !ok {
			continue
		}
		id, _ := d["_id"].(string)
		entries = append(entries, analysis.Entry{ID: id, Composition: comp, Energy: e})
		if els := comp.Elements(); len(els) == 1 {
			have[els[0]] = true
		}
	}
	if refEnergy != nil {
		for _, s := range sorted {
			if !have[s] {
				entries = append(entries, analysis.Entry{
					ID:          "ref-" + s,
					Composition: crystal.Composition{s: 1},
					Energy:      refEnergy(s),
				})
			}
		}
	}
	return entries, nil
}
