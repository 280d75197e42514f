// Command mpserve builds (or reopens) a Materials Project deployment and
// serves the Materials API over HTTP:
//
//	mpserve -addr :8651 -materials 100
//	mpserve -addr :8651 -data ./mpdata        # durable store
//
// Sign up for an API key, then query:
//
//	curl -X POST 'http://localhost:8651/auth/signup?provider=google&email=you@example.com'
//	curl -H "X-API-KEY: $KEY" http://localhost:8651/rest/v1/materials/Fe2O3/vasp/energy
//
// Beyond the default standalone role, mpserve can run as one tier of a
// networked shard cluster (the paper's §IV-D2 scaling path):
//
//	mpserve -role node -addr :9001            # a shard node (internal API)
//	mpserve -role node -addr :9002
//	mpserve -role node -addr :9003
//	mpserve -role node -addr :9004
//	mpserve -role router -addr :8651 -shards 2 \
//	    -peers http://localhost:9001,http://localhost:9002,http://localhost:9003,http://localhost:9004
//
// The router assigns peers to shard groups round-robin (with -shards 2
// the four peers above become group 0 = {9001, 9003} and group 1 =
// {9002, 9004}; the first member of each group starts as primary), builds
// the corpus locally, loads it through the router so every document lands
// on its shard with replicas, and serves the public Materials API on top.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/obs"
	"matproj/internal/pipeline"
	"matproj/internal/queryengine"
	"matproj/internal/rcache"
	"matproj/internal/restapi"
	"matproj/internal/webui"
)

func main() {
	addr := flag.String("addr", ":8651", "listen address")
	role := flag.String("role", "standalone", "process role: standalone, node, or router")
	nMaterials := flag.Int("materials", 80, "synthetic ICSD records to compute on first build (standalone, router)")
	dataDir := flag.String("data", "", "directory for a durable store (empty = in-memory)")
	seed := flag.Int64("seed", 2012, "dataset seed")
	metrics := flag.Bool("metrics", true, "record live metrics and serve GET /metrics and GET /status")
	slowQueryMs := flag.Float64("slow-query-ms", 250, "slow-query log threshold in milliseconds (0 disables the log)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	nodeID := flag.String("id", "", "node identifier (node role; defaults to the listen address)")
	peers := flag.String("peers", "", "comma-separated shard node base URLs (router role)")
	shards := flag.Int("shards", 1, "shard group count; peers are assigned round-robin (router role)")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "router health-check period (0 disables the loop)")
	cacheSize := flag.Int("cache-size", 4096, "result cache capacity in entries; 0 disables the cache (standalone, router)")
	orderedIndexes := flag.String("ordered-index", "",
		"secondary indexes to create after load, beyond the built-in ones (every index is ordered; one path makes a single-field index), as coll:path1,path2 specs separated by ';' (standalone, router)")
	maxBodyBytes := flag.Int64("max-body-bytes", restapi.DefaultMaxBodyBytes,
		"request body size cap in bytes; oversized bodies get 413 (negative disables the cap)")
	flag.Parse()

	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metrics {
		reg = obs.NewRegistry()
		if *slowQueryMs > 0 {
			tracer = obs.NewTracer(time.Duration(*slowQueryMs*float64(time.Millisecond)), 0)
		}
	}

	// The result cache serves repeated hot reads without recomputing the
	// query (nodes don't get one: the router caches on their behalf).
	var rc *rcache.Cache
	if *cacheSize > 0 {
		rc = rcache.New(*cacheSize, reg)
	}

	oindexes, err := parseOrderedIndexSpecs(*orderedIndexes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpserve: %v\n", err)
		os.Exit(2)
	}

	switch *role {
	case "standalone":
		runStandalone(*addr, *nMaterials, *dataDir, *seed, oindexes, rc, reg, tracer, *metrics, *pprofFlag, *slowQueryMs, *maxBodyBytes)
	case "node":
		runNode(*addr, *nodeID, *dataDir, reg)
	case "router":
		runRouter(*addr, *peers, *shards, *nMaterials, *seed, *healthEvery, oindexes, rc, reg, tracer, *metrics, *pprofFlag, *slowQueryMs, *maxBodyBytes)
	default:
		fmt.Fprintf(os.Stderr, "mpserve: unknown role %q (want standalone, node, or router)\n", *role)
		os.Exit(2)
	}
}

// orderedIndexSpec names one ordered compound index to create after the
// corpus loads.
type orderedIndexSpec struct {
	collection string
	paths      []string
}

// parseOrderedIndexSpecs parses the -ordered-index flag value:
// "coll:path1,path2;coll2:path3".
func parseOrderedIndexSpecs(raw string) ([]orderedIndexSpec, error) {
	var specs []orderedIndexSpec
	for _, part := range strings.Split(raw, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		coll, pathList, ok := strings.Cut(part, ":")
		if !ok || coll == "" {
			return nil, fmt.Errorf("-ordered-index spec %q: want coll:path1,path2", part)
		}
		var paths []string
		for _, p := range strings.Split(pathList, ",") {
			if p = strings.TrimSpace(p); p != "" {
				paths = append(paths, p)
			}
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("-ordered-index spec %q: no paths", part)
		}
		specs = append(specs, orderedIndexSpec{collection: coll, paths: paths})
	}
	return specs, nil
}

// runNode serves a bare shard node: a datastore exposed over the internal
// cluster wire protocol, with no pipeline build and no public API — dumb
// storage the router fans out to.
func runNode(addr, id, dataDir string, reg *obs.Registry) {
	if id == "" {
		id = "node" + addr
	}
	store, err := datastore.Open(dataDir)
	if err != nil {
		log.Fatalf("mpserve: node store: %v", err)
	}
	if reg != nil {
		store.Observe(reg, nil)
	}
	node := cluster.NewNode(id, store, reg)
	log.Printf("shard node %q serving the internal cluster API on %s", id, addr)
	if err := http.ListenAndServe(addr, node); err != nil {
		log.Fatalf("mpserve: %v", err)
	}
}

// runRouter builds the corpus locally, loads it through the query router
// onto the shard nodes, and serves the public Materials API backed by
// scatter-gathered reads. Auth keys and status live in a router-local
// store (the paper isolates "the various roles of the database to
// separate servers").
func runRouter(addr, peers string, shards, nMaterials int, seed int64, healthEvery time.Duration,
	oindexes []orderedIndexSpec, rc *rcache.Cache, reg *obs.Registry, tracer *obs.Tracer,
	metrics, pprofFlag bool, slowQueryMs float64, maxBodyBytes int64) {
	var urls []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, strings.TrimSuffix(p, "/"))
		}
	}
	if len(urls) == 0 {
		log.Fatal("mpserve: router role needs -peers")
	}
	if shards < 1 || shards > len(urls) {
		log.Fatalf("mpserve: -shards %d invalid for %d peers", shards, len(urls))
	}
	groups := make([][]string, shards)
	for i, u := range urls {
		groups[i%shards] = append(groups[i%shards], u)
	}
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Groups:         groups,
		Registry:       reg,
		HealthInterval: healthEvery,
		Cache:          rc,
		Tracer:         tracer,
	})
	if err != nil {
		log.Fatalf("mpserve: router: %v", err)
	}
	for gi, g := range groups {
		log.Printf("shard group %d: primary %s, %d replica(s)", gi, g[0], len(g)-1)
	}

	// Build the corpus in-process (the workflow tier is local), then fan
	// the collections out to the shard nodes through the router.
	cfg := pipeline.DefaultConfig()
	cfg.NMaterials = nMaterials
	cfg.Seed = seed
	log.Printf("building deployment (%d materials)...", cfg.NMaterials)
	d, err := pipeline.Build(cfg)
	if err != nil {
		log.Fatalf("mpserve: build: %v", err)
	}
	copied, err := pipeline.CopyCollections(router, d.Store)
	if err != nil {
		log.Fatalf("mpserve: load cluster: %v", err)
	}
	log.Printf("loaded %d documents onto %d shard group(s)", copied, shards)
	for _, spec := range oindexes {
		router.EnsureOrderedIndex(spec.collection, spec.paths...)
		log.Printf("ordered index on %s(%s) created on every shard member",
			spec.collection, strings.Join(spec.paths, ","))
	}

	// The dissemination layer runs unchanged in front of the cluster.
	eng := queryengine.NewWithBackend(router, queryengine.WithRateLimit(10000, time.Minute))
	eng.SetCache(rc)
	if reg != nil || tracer != nil {
		eng.Observe(reg, tracer)
	}
	eng.AddAlias("materials", "formula", "pretty_formula")
	eng.AddAlias("materials", "energy", "final_energy")
	eng.AddAlias("materials", "bandgap", "band_gap")

	// Auth and status stay router-local.
	local := datastore.MustOpenMemory()
	serveAPI(addr, eng, local, reg, tracer, metrics, pprofFlag, slowQueryMs, maxBodyBytes,
		fmt.Sprintf("Materials API (routed, %d shards × %d peers)", shards, len(urls)))
}

func runStandalone(addr string, nMaterials int, dataDir string, seed int64,
	oindexes []orderedIndexSpec, rc *rcache.Cache, reg *obs.Registry, tracer *obs.Tracer,
	metrics, pprofFlag bool, slowQueryMs float64, maxBodyBytes int64) {
	cfg := pipeline.DefaultConfig()
	cfg.NMaterials = nMaterials
	cfg.PersistDir = dataDir
	cfg.Seed = seed
	cfg.Obs = reg
	cfg.Tracer = tracer
	log.Printf("building deployment (%d materials)...", cfg.NMaterials)
	d, err := pipeline.Build(cfg)
	if err != nil {
		log.Fatalf("mpserve: build: %v", err)
	}
	d.Engine.SetCache(rc)
	for _, spec := range oindexes {
		d.Store.C(spec.collection).EnsureOrderedIndex(spec.paths...)
		log.Printf("ordered index on %s(%s)", spec.collection, strings.Join(spec.paths, ","))
	}
	st := d.Store.Stats()
	log.Printf("store ready: %d collections, %d documents, ~%d KB", st.Collections, st.Documents, st.Bytes/1024)
	log.Printf("materials=%d tasks=%d bandstructures=%d xrd=%d batteries=%d",
		d.Materials, d.Tasks, d.Bands, d.XRDPatterns, d.Batteries)
	serveAPI(addr, d.Engine, d.Store, reg, tracer, metrics, pprofFlag, slowQueryMs, maxBodyBytes,
		"Materials API + web portal")
}

// serveAPI mounts the public API (plus portal, metrics, pprof) and
// serves until the process dies.
func serveAPI(addr string, eng *queryengine.Engine, store *datastore.Store,
	reg *obs.Registry, tracer *obs.Tracer, metrics, pprofFlag bool, slowQueryMs float64,
	maxBodyBytes int64, banner string) {
	auth := restapi.NewAuth(store)
	api := restapi.NewServer(eng, auth, store)
	api.MaxBodyBytes = maxBodyBytes
	if metrics {
		api.Observe(reg, tracer)
	}
	if pprofFlag {
		api.EnablePprof()
	}
	portal := webui.NewServer(eng, store)
	mux := http.NewServeMux()
	mux.Handle("/rest/", api)
	mux.Handle("/auth/", api)
	if metrics {
		mux.Handle("/metrics", api)
		mux.Handle("/status", api)
		if tracer != nil {
			log.Printf("slow-query log armed at %.1f ms", slowQueryMs)
		}
	}
	if pprofFlag {
		mux.Handle("/debug/pprof/", api)
		log.Printf("pprof exposed at /debug/pprof/")
	}
	mux.Handle("/", portal)
	log.Printf("%s listening on %s", banner, addr)
	fmt.Printf("portal:  http://localhost%s/\n", addr)
	fmt.Printf("example: curl -X POST 'http://localhost%s/auth/signup?provider=google&email=you@example.com'\n", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Fatalf("mpserve: %v", err)
	}
}
