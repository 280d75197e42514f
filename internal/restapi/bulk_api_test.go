package restapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"matproj/internal/obs"
)

// postJSON performs an authenticated POST with a JSON body and decodes
// the envelope.
func postJSON(t *testing.T, srv *httptest.Server, key, path, body string) (int, apiResponse) {
	t.Helper()
	req, _ := http.NewRequest("POST", srv.URL+path, strings.NewReader(body))
	req.Header.Set("X-API-KEY", key)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env apiResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, env
}

// TestInsertEndpointRejectsNonStringID: a non-string _id is a caller
// error (400) on every backend; the routed suite re-runs this, so a
// cluster cannot store the document under a minted id instead.
func TestInsertEndpointRejectsNonStringID(t *testing.T) {
	srv, key := testServer(t)
	status, env := postJSON(t, srv, key, "/rest/v1/insert", `{"doc": {"_id": 5, "pretty_formula": "Zz9Q"}}`)
	if status != http.StatusBadRequest || env.Valid || !strings.Contains(env.Error, "_id must be a string") {
		t.Fatalf("status=%d env=%+v, want 400 naming the _id type", status, env)
	}
	status, env = postJSON(t, srv, key, "/rest/v1/query", `{"criteria": {"pretty_formula": "Zz9Q"}}`)
	if status != http.StatusOK || env.NResults != 0 {
		t.Errorf("rejected insert is queryable: status=%d env=%+v", status, env)
	}
}

func TestInsertManyEndpoint(t *testing.T) {
	srv, key := testServer(t)
	body := `{"docs": [
		{"_id": "bm-1", "pretty_formula": "TiO2", "final_energy": -9.0},
		{"_id": "bm-2", "pretty_formula": "MgO", "final_energy": -5.5},
		{"pretty_formula": "ZnS", "final_energy": -4.1}
	]}`
	status, env := postJSON(t, srv, key, "/rest/v1/insertMany", body)
	if status != http.StatusOK || !env.Valid {
		t.Fatalf("status=%d env=%+v", status, env)
	}
	if env.NResults != 3 {
		t.Fatalf("rows = %d, want 3", env.NResults)
	}
	for i, row := range env.Response {
		id, _ := row.(map[string]any)["_id"].(string)
		if id == "" {
			t.Errorf("row %d has no _id: %v", i, row)
		}
	}
	// The batch is queryable through the normal read path.
	status, env = postJSON(t, srv, key, "/rest/v1/query", `{"criteria": {"pretty_formula": "MgO"}}`)
	if status != http.StatusOK || env.NResults != 1 {
		t.Fatalf("query after insertMany: status=%d env=%+v", status, env)
	}

	// Empty batch is a caller error.
	if status, _ := postJSON(t, srv, key, "/rest/v1/insertMany", `{"docs": []}`); status != http.StatusBadRequest {
		t.Errorf("empty docs: status=%d, want 400", status)
	}
	// Unauthenticated requests are rejected before any write.
	if status, _ := postJSON(t, srv, "bad-key", "/rest/v1/insertMany", body); status != http.StatusUnauthorized {
		t.Errorf("bad key: status=%d, want 401", status)
	}
}

func TestBulkWriteEndpoint(t *testing.T) {
	srv, key := testServer(t)
	body := `{"ops": [
		{"op": "insert", "doc": {"_id": "bw-1", "pretty_formula": "CaO", "final_energy": -6.0}},
		{"op": "insert", "doc": {"_id": "bw-1", "pretty_formula": "CaO"}},
		{"op": "updateMany", "filter": {"_id": "bw-1"}, "update": {"$set": {"band_gap": 7.0}}},
		{"op": "delete", "filter": {"_id": "mat-3"}}
	]}`
	status, env := postJSON(t, srv, key, "/rest/v1/bulkWrite", body)
	if status != http.StatusOK || !env.Valid {
		t.Fatalf("status=%d env=%+v", status, env)
	}
	if env.NResults != 4 {
		t.Fatalf("rows = %d, want 4", env.NResults)
	}
	rows := make([]map[string]any, 4)
	for i, r := range env.Response {
		rows[i] = r.(map[string]any)
	}
	if rows[0]["id"] != "bw-1" || rows[0]["error"] != nil {
		t.Errorf("insert row = %v", rows[0])
	}
	if errMsg, _ := rows[1]["error"].(string); errMsg == "" {
		t.Errorf("duplicate insert row carries no error: %v", rows[1])
	}
	if rows[2]["matched"] != 1.0 || rows[2]["modified"] != 1.0 {
		t.Errorf("updateMany row = %v", rows[2])
	}
	if rows[3]["removed"] != 1.0 {
		t.Errorf("delete row = %v", rows[3])
	}
	// The update landed and the delete is visible on the read path.
	status, env = postJSON(t, srv, key, "/rest/v1/query", `{"criteria": {"_id": "bw-1"}}`)
	if status != 200 || env.NResults != 1 {
		t.Fatalf("query bw-1: %d %+v", status, env)
	}
	if env.Response[0].(map[string]any)["band_gap"] != 7.0 {
		t.Errorf("bulk update not applied: %v", env.Response[0])
	}
	if _, env := postJSON(t, srv, key, "/rest/v1/query", `{"criteria": {"_id": "mat-3"}}`); env.NResults != 0 {
		t.Error("bulk delete not applied")
	}

	if status, _ := postJSON(t, srv, key, "/rest/v1/bulkWrite", `{"ops": []}`); status != http.StatusBadRequest {
		t.Errorf("empty ops: status=%d, want 400", status)
	}
}

// TestBodyCapReturns413 is the regression test for unbounded request
// bodies: a body over MaxBodyBytes must be refused with 413 in the
// standard envelope — not streamed into memory — and counted in
// http.body_rejected.
func TestBodyCapReturns413(t *testing.T) {
	store := newTestStore(t)
	eng := newTestEngine(store)
	auth := NewAuth(store)
	api := NewServer(eng, auth, store)
	api.MaxBodyBytes = 512
	reg := obs.NewRegistry()
	api.Observe(reg, nil)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	key, err := auth.Signup("google", "cap@example.com")
	if err != nil {
		t.Fatal(err)
	}

	big := `{"criteria": {"pretty_formula": "` + strings.Repeat("X", 2048) + `"}}`
	status, env := postJSON(t, srv, key, "/rest/v1/query", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", status)
	}
	if env.Valid || !strings.Contains(env.Error, "512") {
		t.Errorf("envelope = %+v", env)
	}
	if got := reg.Snapshot().Counters["http.body_rejected"]; got != 1 {
		t.Errorf("http.body_rejected = %d, want 1", got)
	}

	// Under the cap, the same endpoint still works.
	status, _ = postJSON(t, srv, key, "/rest/v1/query", `{"criteria": {"_id": "mat-1"}}`)
	if status != http.StatusOK {
		t.Errorf("small body: status = %d", status)
	}

	// A negative cap disables the limit entirely.
	api2 := NewServer(eng, auth, store)
	api2.MaxBodyBytes = -1
	srv2 := httptest.NewServer(api2)
	t.Cleanup(srv2.Close)
	if status, _ := postJSON(t, srv2, key, "/rest/v1/query", big); status != http.StatusOK {
		t.Errorf("uncapped big body: status = %d", status)
	}
}
