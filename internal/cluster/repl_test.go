package cluster_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matproj/internal/cluster"
	"matproj/internal/cluster/replog"
	"matproj/internal/cluster/wire"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/faults"
	"matproj/internal/obs"
	"matproj/internal/webload"
)

// liveServer serves a node on a real TCP listener so it can be killed
// and restarted on the same address — which httptest servers cannot do.
type liveServer struct {
	t    *testing.T
	addr string
	node *cluster.Node
	mu   sync.Mutex
	srv  *http.Server
}

func serveNode(t *testing.T, n *cluster.Node) *liveServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &liveServer{t: t, addr: lis.Addr().String(), node: n, srv: &http.Server{Handler: n}}
	go s.srv.Serve(lis)
	t.Cleanup(s.stop)
	return s
}

func (s *liveServer) url() string { return "http://" + s.addr }

func (s *liveServer) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv.Close()
}

// restart rebinds the node on its original address.
func (s *liveServer) restart() {
	s.t.Helper()
	lis, err := net.Listen("tcp", s.addr)
	if err != nil {
		s.t.Fatal(err)
	}
	s.mu.Lock()
	s.srv = &http.Server{Handler: s.node}
	go s.srv.Serve(lis)
	s.mu.Unlock()
}

// TestReplicaReadmissionViaLogCatchUp is the tentpole scenario at test
// scale: kill a replica, write through the gap, restart it, and check
// the health sweep re-admits it by shipping only the missed log entries
// — counted by cluster.repl_catchup_entries — not a full copy.
func TestReplicaReadmissionViaLogCatchUp(t *testing.T) {
	reg := obs.NewRegistry()
	n0 := cluster.NewNode("n0", datastore.MustOpenMemory(), reg)
	n1 := cluster.NewNode("n1", datastore.MustOpenMemory(), reg)
	s0, s1 := serveNode(t, n0), serveNode(t, n1)
	r, err := cluster.NewRouter(cluster.RouterOptions{
		Groups: [][]string{{s0.url(), s1.url()}}, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	routed := r.C("materials")
	seedMaterials(t, routed, 20)
	if g0, g1 := n0.Store().ReplGen(), n1.Store().ReplGen(); g0 != 20 || g1 != 20 {
		t.Fatalf("pre-kill gens: %d/%d, want 20/20", g0, g1)
	}

	s1.stop()
	// Writes keep flowing; the first one trips over the dead replica,
	// marks it down, and is not silent about the partial fan-out.
	for i := 0; i < 10; i++ {
		if _, err := routed.Insert(document.D{"_id": fmt.Sprintf("gap-%d", i), "n": i}); err != nil {
			t.Fatalf("insert during outage: %v", err)
		}
	}
	if v := reg.Counter("cluster.replica_write_failures").Value(); v != 1 {
		t.Errorf("replica_write_failures = %d, want 1 (first insert hit the dead member)", v)
	}
	if g := n1.Store().ReplGen(); g != 20 {
		t.Fatalf("dead replica advanced to gen %d", g)
	}

	s1.restart()
	if healthy := r.CheckNow(); healthy != 2 {
		t.Fatalf("healthy after re-admission sweep = %d, want 2", healthy)
	}
	if v := reg.Counter("cluster.repl_readmissions").Value(); v != 1 {
		t.Errorf("repl_readmissions = %d, want 1", v)
	}
	if v := reg.Counter("cluster.repl_catchup_entries").Value(); v != 10 {
		t.Errorf("repl_catchup_entries = %d, want exactly the 10 missed entries", v)
	}
	if v := reg.Counter("cluster.repl_snapshot_copies").Value(); v != 0 {
		t.Errorf("repl_snapshot_copies = %d, want 0 (log catch-up, not a full copy)", v)
	}
	if g := n1.Store().ReplGen(); g != 30 {
		t.Errorf("re-admitted replica gen = %d, want 30", g)
	}
	n, err := n1.Store().C("materials").Count(nil)
	if err != nil || n != 30 {
		t.Errorf("re-admitted replica count = %d (err %v), want 30", n, err)
	}
}

// TestReadmissionSnapshotFallbackAfterRotation: when the source journal
// has rotated (snapshot + truncate) past the returning replica's
// generation, catch-up must fall back to a full state copy and still
// converge.
func TestReadmissionSnapshotFallbackAfterRotation(t *testing.T) {
	reg := obs.NewRegistry()
	st0, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st1, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n0 := cluster.NewNode("n0", st0, reg)
	n1 := cluster.NewNode("n1", st1, reg)
	s0, s1 := serveNode(t, n0), serveNode(t, n1)
	r, err := cluster.NewRouter(cluster.RouterOptions{
		Groups: [][]string{{s0.url(), s1.url()}}, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	routed := r.C("materials")
	seedMaterials(t, routed, 8)
	s1.stop()
	for i := 0; i < 12; i++ {
		if _, err := routed.Insert(document.D{"_id": fmt.Sprintf("rot-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Rotate the source journal: entries 1..20 are gone, only the
	// snapshot remains. The replica's gen 8 is now unservable.
	if err := st0.Snapshot(); err != nil {
		t.Fatal(err)
	}

	s1.restart()
	if healthy := r.CheckNow(); healthy != 2 {
		t.Fatalf("healthy = %d, want 2", healthy)
	}
	if v := reg.Counter("cluster.repl_snapshot_copies").Value(); v != 1 {
		t.Errorf("repl_snapshot_copies = %d, want 1", v)
	}
	if g := st1.ReplGen(); g != 20 {
		t.Errorf("replica gen after snapshot copy = %d, want 20", g)
	}
	if n, _ := st1.C("materials").Count(nil); n != 20 {
		t.Errorf("replica count = %d, want 20", n)
	}
}

// TestCatchUpTornPullStream tears bytes off the pull stream mid-flight
// (satellite: extend the faults injector to the replication stream) and
// checks the follower applies only checksum-clean prefixes, the client
// re-pulls from the follower's generation, and catch-up still
// converges with the follower byte-identical to the source — a corrupt
// entry is never applied.
func TestCatchUpTornPullStream(t *testing.T) {
	reg := obs.NewRegistry()
	src := cluster.NewNode("src", datastore.MustOpenMemory(), reg)
	dst := cluster.NewNode("dst", datastore.MustOpenMemory(), reg)
	srcSrv := httptest.NewServer(src)
	dstSrv := httptest.NewServer(dst)
	t.Cleanup(srcSrv.Close)
	t.Cleanup(dstSrv.Close)

	for i := 0; i < 40; i++ {
		if _, err := src.Store().C("materials").Insert(document.D{
			"_id": fmt.Sprintf("mat-%02d", i), "band_gap": float64(i) / 10,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// A proxy in front of the source tears the first two pull responses
	// the way a connection reset would: the final framed line arrives
	// clipped.
	inj := faults.New(faults.Config{Seed: 7})
	tears := 0
	var tearMu sync.Mutex
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		resp, err := http.Post(srcSrv.URL+req.URL.RequestURI(), "text/plain", req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if strings.HasSuffix(req.URL.Path, wire.PathReplPull) {
			tearMu.Lock()
			if tears < 2 {
				body, _ = inj.TearBytes(body, 8)
				tears++
			}
			tearMu.Unlock()
		}
		if h := resp.Header.Get(wire.HeaderReplHead); h != "" {
			w.Header().Set(wire.HeaderReplHead, h)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(proxy.Close)

	c := &replog.Client{}
	res, err := c.CatchUp(proxy.URL, dstSrv.URL, 0)
	if err != nil {
		t.Fatalf("catch-up through tearing proxy: %v", err)
	}
	if res.Snapshot {
		t.Error("catch-up fell back to snapshot; torn batches should re-pull incrementally")
	}
	if res.Shipped != 40 {
		t.Errorf("shipped %d entries, want 40", res.Shipped)
	}
	if st := inj.Stats(); st.TornBatches != 2 {
		t.Errorf("injector tore %d batches, want 2", st.TornBatches)
	}
	if v := reg.Counter("node_repl_torn_batches_total").Value(); v == 0 {
		t.Error("follower never reported a torn batch")
	}

	// Byte-level convergence: every doc identical, no corrupt entry.
	if g := dst.Store().ReplGen(); g != src.Store().ReplGen() {
		t.Fatalf("gen mismatch: dst %d, src %d", g, src.Store().ReplGen())
	}
	want, err := src.Store().C("materials").FindAll(nil, &datastore.FindOpts{Sort: []string{"_id"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.Store().C("materials").FindAll(nil, &datastore.FindOpts{Sort: []string{"_id"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("dst has %d docs, src %d", len(got), len(want))
	}
	for i := range want {
		if !document.Equal(got[i], want[i]) {
			t.Errorf("doc %d diverged:\n dst %v\n src %v", i, got[i], want[i])
		}
	}
}

// TestFollowerReadsRespectStalenessBound hammers a 2-member group with
// a concurrent probe writer and bounded-staleness readers while the
// follower is killed and re-admitted mid-run. No read may ever observe
// data older than its staleness bound (run under -race in CI).
func TestFollowerReadsRespectStalenessBound(t *testing.T) {
	const maxStale = 2
	reg := obs.NewRegistry()
	n0 := cluster.NewNode("n0", datastore.MustOpenMemory(), reg)
	n1 := cluster.NewNode("n1", datastore.MustOpenMemory(), reg)
	s0, s1 := serveNode(t, n0), serveNode(t, n1)
	r, err := cluster.NewRouter(cluster.RouterOptions{
		Groups: [][]string{{s0.url(), s1.url()}}, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	routed := r.C("materials")

	var probe webload.Probe
	writerDone := make(chan struct{})
	const probes = 120
	go func() {
		defer close(writerDone)
		for i := int64(1); i <= probes; i++ {
			if _, err := routed.Insert(document.D(webload.ProbeDoc("t", i))); err != nil {
				t.Errorf("probe insert %d: %v", i, err)
				return
			}
			probe.Ack(i)
		}
	}()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	violations := make(chan string, 8)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				acked := probe.Acked()
				docs, err := routed.FindAll(webload.ProbeFilter("t"), webload.ProbeOpts(maxStale))
				if err != nil {
					continue // outage window; availability is not under test here
				}
				observed := webload.ObservedSeq(docs)
				if webload.ProbeViolation(observed, acked, 1, maxStale) {
					select {
					case violations <- fmt.Sprintf("observed %d with %d acked (bound %d)", observed, acked, maxStale):
					default:
					}
				}
			}
		}()
	}

	waitAcked := func(n int64) {
		for probe.Acked() < n {
			time.Sleep(time.Millisecond)
		}
	}
	waitAcked(30)
	s1.stop()
	waitAcked(70)
	s1.restart()
	if healthy := r.CheckNow(); healthy != 2 {
		t.Errorf("healthy after re-admission = %d", healthy)
	}
	<-writerDone
	// Let readers run a little against the fully-caught-up pair.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	select {
	case v := <-violations:
		t.Fatalf("staleness bound violated: %s", v)
	default:
	}
	if v := reg.Counter("cluster.follower_reads_total").Value(); v == 0 {
		t.Error("no read was ever served by the follower")
	}
}

// TestReadRetriesRecoverTransientBlip: a single-member group whose only
// call is dropped once must recover within the read's own retry rounds
// (re-probe + jittered backoff) instead of surfacing the blip.
func TestReadRetriesRecoverTransientBlip(t *testing.T) {
	tc := startCluster(t, 1, 0)
	routed := tc.router.C("materials")
	seedMaterials(t, routed, 5)

	tc.router.InjectFaults(&scriptedFaults{drop: 1})
	docs, err := routed.FindAll(nil, nil)
	if err != nil {
		t.Fatalf("read should have retried through the blip: %v", err)
	}
	if len(docs) != 5 {
		t.Errorf("docs = %d, want 5", len(docs))
	}
	if v := tc.reg.Counter("cluster.read_retries_total").Value(); v == 0 {
		t.Error("retry counter never moved")
	}
}

// TestIndexDefsReachReadmittedReplica: an ordered index created while a
// replica is down is a replicated log record like any write, so the
// catch-up stream must deliver it — the re-admitted replica ends up with
// the index built and planning through it.
func TestIndexDefsReachReadmittedReplica(t *testing.T) {
	reg := obs.NewRegistry()
	n0 := cluster.NewNode("n0", datastore.MustOpenMemory(), reg)
	n1 := cluster.NewNode("n1", datastore.MustOpenMemory(), reg)
	s0, s1 := serveNode(t, n0), serveNode(t, n1)
	r, err := cluster.NewRouter(cluster.RouterOptions{
		Groups: [][]string{{s0.url(), s1.url()}}, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	routed := r.C("materials")
	seedMaterials(t, routed, 12)

	s1.stop()
	r.EnsureOrderedIndex("materials", "band_gap")
	if _, err := routed.Insert(document.D{"_id": "gap-0", "band_gap": 1.25}); err != nil {
		t.Fatalf("insert during outage: %v", err)
	}
	if got := n1.Store().C("materials").Stats().Indexes; len(got) != 0 {
		t.Fatalf("dead replica grew indexes: %v", got)
	}

	s1.restart()
	if healthy := r.CheckNow(); healthy != 2 {
		t.Fatalf("healthy after re-admission sweep = %d, want 2", healthy)
	}
	got := n1.Store().C("materials").Stats().Indexes
	if len(got) != 1 || got[0] != "band_gap" {
		t.Fatalf("re-admitted replica indexes = %v, want [band_gap]", got)
	}
	// The caught-up index is real: the replica plans range queries
	// through it and the backfill covered both pre-outage docs and the
	// write that followed the create in the log.
	plan, err := n1.Store().C("materials").Explain(
		document.D{"band_gap": document.D{"$gte": 1.0, "$lt": 2.0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan["mode"] != "index" || plan["index"] != "band_gap" {
		t.Fatalf("re-admitted replica does not plan through the index: %v", plan)
	}
	nLocal, err := n1.Store().C("materials").Count(document.D{"band_gap": document.D{"$gte": 1.0, "$lt": 2.0}})
	if err != nil {
		t.Fatal(err)
	}
	nRouted, err := routed.Count(document.D{"band_gap": document.D{"$gte": 1.0, "$lt": 2.0}})
	if err != nil {
		t.Fatal(err)
	}
	if nLocal != nRouted {
		t.Fatalf("re-admitted replica count %d, routed count %d", nLocal, nRouted)
	}

	// Routed Explain merges per-shard plans; with one group the merged
	// doc reports the common mode.
	merged, err := routed.Explain(document.D{"band_gap": document.D{"$gte": 1.0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merged["sharded"] != true || merged["mode"] != "index" {
		t.Fatalf("routed explain = %v, want sharded index mode", merged)
	}
}

// TestSweepDuringWriteKeepsAppliedWrite holds a routed insert between its
// primary and replica steps — the replica's first POST after seeding
// blocks in its handler until released — and runs a health sweep in
// that window. A write the primary applied must be acked, never turned
// into a "duplicate _id" by a replica that received the entry twice, and
// the pair must converge.
func TestSweepDuringWriteKeepsAppliedWrite(t *testing.T) {
	reg := obs.NewRegistry()
	primary := cluster.NewNode("p", datastore.MustOpenMemory(), reg)
	replica := cluster.NewNode("r", datastore.MustOpenMemory(), reg)
	var armed atomic.Bool
	reached, release := make(chan struct{}), make(chan struct{})
	hold := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost && armed.CompareAndSwap(true, false) {
			close(reached)
			<-release
		}
		replica.ServeHTTP(w, req)
	})
	ps, rs := httptest.NewServer(primary), httptest.NewServer(hold)
	t.Cleanup(ps.Close)
	t.Cleanup(rs.Close)
	r, err := cluster.NewRouter(cluster.RouterOptions{
		Groups: [][]string{{ps.URL, rs.URL}}, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	routed := r.C("materials")
	seedMaterials(t, routed, 5)

	armed.Store(true)
	errc := make(chan error, 1)
	go func() {
		_, err := routed.Insert(document.D{"_id": "probe-1", "seq": int64(1)})
		errc <- err
	}()
	<-reached
	if healthy := r.CheckNow(); healthy != 2 {
		t.Errorf("healthy during held write = %d, want 2", healthy)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("insert applied on the primary failed: %v", err)
	}
	if g0, g1 := primary.Store().ReplGen(), replica.Store().ReplGen(); g0 != g1 {
		t.Errorf("gens diverged: primary %d, replica %d", g0, g1)
	}
	if _, err := replica.Store().C("materials").FindID("probe-1"); err != nil {
		t.Errorf("replica lacks the acked write: %v", err)
	}
	if v := reg.Counter("cluster.replica_write_failures").Value(); v != 0 {
		t.Errorf("replica_write_failures = %d, want 0", v)
	}
}

// TestReplicasExecuteNoClientOps drives every routed write through a
// 1×2 group and checks the replica never executed a client op: it
// received each write through the log, so its documents, indexes and
// generation equal the primary's.
func TestReplicasExecuteNoClientOps(t *testing.T) {
	routerReg, primaryReg, replicaReg := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
	primary := cluster.NewNode("p", datastore.MustOpenMemory(), primaryReg)
	replica := cluster.NewNode("r", datastore.MustOpenMemory(), replicaReg)
	ps, rs := httptest.NewServer(primary), httptest.NewServer(replica)
	t.Cleanup(ps.Close)
	t.Cleanup(rs.Close)
	r, err := cluster.NewRouter(cluster.RouterOptions{
		Groups: [][]string{{ps.URL, rs.URL}}, Registry: routerReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	routed := r.C("materials")

	seedMaterials(t, routed, 10)
	if _, err := r.InsertMany("materials", []document.D{{"_id": "m-a", "band_gap": 1.0}, {"band_gap": 2.0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.BulkWrite("materials", []datastore.BulkOp{
		{Op: datastore.BulkInsert, Doc: document.D{"_id": "b-1", "band_gap": 3.0}},
		{Op: datastore.BulkUpdateMany, Filter: document.D{"nelements": int64(1)}, Update: document.D{"$set": document.D{"bulk": true}}},
		{Op: datastore.BulkDelete, Filter: document.D{"_id": "mat-009"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := routed.UpdateOne(document.D{"_id": "m-a"}, document.D{"$set": document.D{"one": true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := routed.UpdateMany(document.D{"nelements": int64(2)}, document.D{"$inc": document.D{"band_gap": 1.0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Remove("materials", document.D{"_id": "mat-000"}); err != nil {
		t.Fatal(err)
	}
	r.EnsureOrderedIndex("materials", "band_gap")

	writes := []string{wire.PathInsert, wire.PathInsertMany, wire.PathBulkWrite, wire.PathUpdate, wire.PathRemove, wire.PathEnsureIndex}
	pSnap, rSnap := primaryReg.Snapshot(), replicaReg.Snapshot()
	for _, path := range writes {
		name := "node_op" + path + "_ms"
		if n := rSnap.Histograms[name].Count; n != 0 {
			t.Errorf("replica executed %d %s ops", n, path)
		}
		if pSnap.Histograms[name].Count == 0 {
			t.Errorf("primary never executed %s", path)
		}
	}
	if v := routerReg.Counter("cluster.replica_write_failures").Value(); v != 0 {
		t.Errorf("replica_write_failures = %d, want 0", v)
	}

	ps0, rs0 := primary.Store(), replica.Store()
	if g0, g1 := ps0.ReplGen(), rs0.ReplGen(); g0 != g1 || g0 == 0 {
		t.Errorf("ReplGen: primary %d, replica %d", g0, g1)
	}
	if p, q := ps0.C("materials").Stats().Indexes, rs0.C("materials").Stats().Indexes; fmt.Sprint(p) != fmt.Sprint(q) || len(p) != 1 {
		t.Errorf("indexes: primary %v, replica %v", p, q)
	}
	byID := &datastore.FindOpts{Sort: []string{"_id"}}
	want, err := ps0.C("materials").FindAll(nil, byID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs0.C("materials").FindAll(nil, byID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) != 11 {
		t.Fatalf("replica has %d docs, primary %d (want 11)", len(got), len(want))
	}
	for i := range want {
		if !document.Equal(got[i], want[i]) {
			t.Errorf("doc %d: replica %v, primary %v", i, got[i], want[i])
		}
	}
}
