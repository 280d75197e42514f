package restapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/obs"
	"matproj/internal/pipeline"
	"matproj/internal/queryengine"
	"matproj/internal/rcache"
)

// newRoutedEngine stands the test corpus up on a networked 2-shard × 2-
// member cluster and returns an engine fronting the router, so the REST
// API serves over the wire transport instead of a local store.
func newRoutedEngine(t *testing.T, store *datastore.Store, opts ...queryengine.Option) *queryengine.Engine {
	t.Helper()
	router, _ := newRouter(t, store, nil)
	return queryengine.NewWithBackend(router, opts...)
}

// newRouter copies store's collections onto a networked 2-shard × 2-
// member cluster whose router uses rc as its result cache (nil for
// none), and returns the router and the member stores.
func newRouter(t *testing.T, store *datastore.Store, rc *rcache.Cache) (*cluster.Router, []*datastore.Store) {
	t.Helper()
	reg := obs.NewRegistry()
	var groups [][]string
	var members []*datastore.Store
	for gi := 0; gi < 2; gi++ {
		var urls []string
		for mi := 0; mi < 2; mi++ {
			ms := datastore.MustOpenMemory()
			srv := httptest.NewServer(cluster.NewNode(fmt.Sprintf("node-%d-%d", gi, mi), ms, reg))
			t.Cleanup(srv.Close)
			urls = append(urls, srv.URL)
			members = append(members, ms)
		}
		groups = append(groups, urls)
	}
	router, err := cluster.NewRouter(cluster.RouterOptions{Groups: groups, Registry: reg, Cache: rc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	if _, err := pipeline.CopyCollections(router, store); err != nil {
		t.Fatal(err)
	}
	return router, members
}

// TestMaterialsAPISuiteRouted re-points the entire Materials API test
// suite at a routed backend: every testServer in the suite builds a
// router fronting 2 networked shard groups (2 members each) and the same
// assertions must hold — the dissemination layer cannot tell a local
// store from a cluster.
func TestMaterialsAPISuiteRouted(t *testing.T) {
	t.Setenv("RESTAPI_BACKEND", "routed")
	runMaterialsAPISuite(t)
}

// runMaterialsAPISuite runs the Materials API suite as subtests, on the
// backend RESTAPI_BACKEND names.
func runMaterialsAPISuite(t *testing.T) {
	t.Run("Fig4URI", TestFig4URI)
	t.Run("MaterialsByIDChemsysAndAll", TestMaterialsByIDChemsysAndAll)
	t.Run("MaterialsErrors", TestMaterialsErrors)
	t.Run("AuthRequired", TestAuthRequired)
	t.Run("SignupDelegation", TestSignupDelegation)
	t.Run("QueryEndpointSanitized", TestQueryEndpointSanitized)
	t.Run("DerivedCollections", TestDerivedCollections)
	t.Run("BatteriesEndpoint", TestBatteriesEndpoint)
	t.Run("RateLimitReturns429", TestRateLimitReturns429)
	t.Run("ResponseEnvelopeShape", TestResponseEnvelopeShape)
	t.Run("AggregateEndpoint", TestAggregateEndpoint)
	t.Run("InsertEndpointRejectsNonStringID", TestInsertEndpointRejectsNonStringID)
	t.Run("InsertManyEndpoint", TestInsertManyEndpoint)
	t.Run("BulkWriteEndpoint", TestBulkWriteEndpoint)
}

// TestRoutedBackendUnavailable: with every shard member down, the API
// must answer 503 (the retryable signal mpclient keys on), not blame the
// caller with a 400.
func TestRoutedBackendUnavailable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	router, err := cluster.NewRouter(cluster.RouterOptions{Groups: [][]string{{dead.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	store := newTestStore(t)
	eng := queryengine.NewWithBackend(router)
	srv := httptest.NewServer(NewServer(eng, NewAuth(store), store))
	t.Cleanup(srv.Close)
	auth := NewAuth(store)
	key, err := auth.Signup("google", "alice@example.com")
	if err != nil {
		t.Fatal(err)
	}

	status, env := get(t, srv, key, "/rest/v1/materials/Fe2O3/vasp/energy")
	if status != http.StatusServiceUnavailable || env.Valid {
		t.Fatalf("dead cluster: status=%d env=%+v, want 503", status, env)
	}
}
