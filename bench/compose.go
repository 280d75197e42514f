package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/obs"
	"matproj/internal/queryengine"
	"matproj/internal/rcache"
	"matproj/internal/restapi"
)

// composition is the system under test assembled in this process from
// the same layers cmd/mpserve composes: restapi.Server over
// queryengine.Engine over either a cluster.Router in front of four
// cluster.Nodes (2 shards x 2 members, each a datastore behind a
// loopback listener) or one datastore. With a tracer it interposes at
// the public seams only; with nil it is the plain composition.
type composition struct {
	*deployment
	edgeReg  *obs.Registry // restapi, queryengine, rcache, router
	storeReg *obs.Registry // the storage processes' datastores and journals
	closers  []func()
}

// storeBackend adapts *datastore.Store to queryengine.Backend.
type storeBackend struct{ s *datastore.Store }

func (b storeBackend) C(name string) queryengine.Collection { return b.s.C(name) }

func compose(w workload, runDir string, tr *tracer) (c *composition, err error) {
	c = &composition{
		deployment: &deployment{client: newClient()},
		edgeReg:    obs.NewRegistry(),
		storeReg:   obs.NewRegistry(),
	}
	c.stop = func() {
		for i := len(c.closers) - 1; i >= 0; i-- {
			c.closers[i]()
		}
		c.client.CloseIdleConnections()
		os.RemoveAll(runDir)
	}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	openStore := func(name string) (*datastore.Store, error) {
		dir := ""
		if w.durable {
			dir = filepath.Join(runDir, name+"-data")
		}
		s, err := datastore.Open(dir)
		if err != nil {
			return nil, fmt.Errorf("open store %s: %w", name, err)
		}
		s.Observe(c.storeReg, nil)
		c.closers = append(c.closers, func() { s.Close() })
		if w.durable {
			c.dataDirs = append(c.dataDirs, dir)
		}
		return s, nil
	}

	// This one process stands in for the edge and every storage process.
	c.servers = []server{{"standalone", os.Getpid()}}
	if w.routed {
		c.servers[0].role = "router"
	}
	rc := rcache.New(cacheSize, c.edgeReg)
	var backend queryengine.Backend
	spanName := spanStore
	if w.routed {
		spanName = spanRouter
		groups := make([][]string, 2)
		for i := 0; i < 4; i++ {
			store, err := openStore(fmt.Sprintf("node%d", i))
			if err != nil {
				return nil, err
			}
			var h http.Handler = cluster.NewNode(fmt.Sprintf("node%d", i), store, c.storeReg)
			if tr != nil {
				h = tr.wrapNode(h)
			}
			srv := httptest.NewServer(h)
			c.closers = append(c.closers, srv.Close)
			groups[i%2] = append(groups[i%2], srv.URL)
		}
		client := &http.Client{Timeout: 5 * time.Second}
		if tr != nil {
			client.Transport = tracedTransport{tr, http.DefaultTransport}
		}
		router, err := cluster.NewRouter(cluster.RouterOptions{Groups: groups, Registry: c.edgeReg, Cache: rc, Client: client})
		if err != nil {
			return nil, err
		}
		c.closers = append(c.closers, router.Close)
		router.EnsureOrderedIndex("materials", "band_gap")
		router.EnsureOrderedIndex("materials", "e_per_atom")
		backend = router
	} else {
		store, err := openStore("standalone")
		if err != nil {
			return nil, err
		}
		store.C("materials").EnsureOrderedIndex("band_gap")
		store.C("materials").EnsureOrderedIndex("e_per_atom")
		backend = storeBackend{store}
	}
	if tr != nil {
		backend = tracedBackend{backend, tr, spanName}
	}
	eng := queryengine.NewWithBackend(backend, queryengine.WithRateLimit(10000, time.Minute))
	eng.SetCache(rc)
	eng.Observe(c.edgeReg, nil)
	eng.AddAlias("materials", "formula", "pretty_formula")
	eng.AddAlias("materials", "energy", "final_energy")
	eng.AddAlias("materials", "bandgap", "band_gap")

	// Users and keys live in an edge-local store, as on a router; it is
	// not observed, so the datastore metrics are the materials' alone.
	local := datastore.MustOpenMemory()
	api := restapi.NewServer(eng, restapi.NewAuth(local), local)
	api.Observe(c.edgeReg, nil)
	var h http.Handler = api
	if tr != nil {
		h = tr.wrapEdge(h)
	}
	edge := httptest.NewServer(h)
	c.closers = append(c.closers, edge.Close)
	c.edge = edge.URL
	return c, nil
}
