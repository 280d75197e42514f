package replog_test

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"matproj/internal/cluster"
	"matproj/internal/cluster/replog"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
)

// peer is one node on a test server.
type peer struct {
	node *cluster.Node
	reg  *obs.Registry
	url  string
}

func newPeer(t *testing.T, store *datastore.Store) *peer {
	t.Helper()
	reg := obs.NewRegistry()
	n := cluster.NewNode("peer", store, reg)
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)
	return &peer{node: n, reg: reg, url: srv.URL}
}

func durableStore(t *testing.T) *datastore.Store {
	t.Helper()
	s, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func insert(t *testing.T, p *peer, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := p.node.Store().C("m").Insert(document.D{"_id": fmt.Sprintf("d%02d", i), "n": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// assertSame checks dst holds exactly src's documents and generation.
func assertSame(t *testing.T, src, dst *peer) {
	t.Helper()
	if g, w := dst.node.Store().ReplGen(), src.node.Store().ReplGen(); g != w {
		t.Errorf("dst gen %d, src gen %d", g, w)
	}
	opts := &datastore.FindOpts{Sort: []string{"_id"}}
	want, err := src.node.Store().C("m").FindAll(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.node.Store().C("m").FindAll(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("dst has %d docs, src %d", len(got), len(want))
	}
	for i := range want {
		if !document.Equal(got[i], want[i]) {
			t.Errorf("doc %d: dst %v, src %v", i, got[i], want[i])
		}
	}
}

// TestCatchUpIncremental ships only the entries past dst's generation,
// in one pull and one apply: the apply that reaches the pulled head ends
// the catch-up without a confirming empty pull.
func TestCatchUpIncremental(t *testing.T) {
	src, dst := newPeer(t, datastore.MustOpenMemory()), newPeer(t, datastore.MustOpenMemory())
	c := &replog.Client{}
	insert(t, src, 0, 4)
	if _, err := c.CatchUp(src.url, dst.url, 0); err != nil {
		t.Fatal(err)
	}
	insert(t, src, 4, 6)
	pulls := src.reg.Counter("node_repl_pulls_total").Value()
	res, err := c.CatchUp(src.url, dst.url, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shipped != 6 || res.Snapshot || res.Head != 10 {
		t.Errorf("result %+v, want 6 shipped, no snapshot, head 10", res)
	}
	if n := src.reg.Counter("node_repl_pulls_total").Value() - pulls; n != 1 {
		t.Errorf("catch-up took %d pulls, want 1", n)
	}
	assertSame(t, src, dst)
}

// TestCatchUpGoneTakesSnapshot: once the source's snapshot rotation has
// folded dst's generation away, the pull answers 410 and catch-up copies
// the full state instead.
func TestCatchUpGoneTakesSnapshot(t *testing.T) {
	src, dst := newPeer(t, durableStore(t)), newPeer(t, datastore.MustOpenMemory())
	insert(t, src, 0, 5)
	if err := src.node.Store().Snapshot(); err != nil {
		t.Fatal(err)
	}
	insert(t, src, 5, 2)
	res, err := (&replog.Client{}).CatchUp(src.url, dst.url, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Snapshot || res.Head != 7 {
		t.Errorf("result %+v, want a snapshot copy to head 7", res)
	}
	if v := src.reg.Counter("node_repl_gap_total").Value(); v != 1 {
		t.Errorf("node_repl_gap_total = %d, want 1", v)
	}
	assertSame(t, src, dst)
}

// dropNext drops the next n journal appends.
type dropNext struct {
	mu sync.Mutex
	n  int
}

func (d *dropNext) DropAppend() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n > 0 {
		d.n--
		return true
	}
	return false
}

func (*dropNext) AppendDelay() time.Duration { return 0 }

// TestCatchUpHoleTakesSnapshot: an append the source's journal dropped
// burns its generation without reaching the log. A puller at the entry
// before it finds the head past it and nothing to ship, and takes the
// snapshot copy rather than believing it is caught up.
func TestCatchUpHoleTakesSnapshot(t *testing.T) {
	srcStore := durableStore(t)
	src, dst := newPeer(t, srcStore), newPeer(t, datastore.MustOpenMemory())
	c := &replog.Client{}
	insert(t, src, 0, 3)
	if _, err := c.CatchUp(src.url, dst.url, 0); err != nil {
		t.Fatal(err)
	}
	srcStore.InjectJournalFaults(&dropNext{n: 1})
	insert(t, src, 3, 1)
	res, err := c.CatchUp(src.url, dst.url, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Snapshot || res.Shipped != 0 || res.Head != 4 {
		t.Errorf("result %+v, want a snapshot copy to head 4", res)
	}
	assertSame(t, src, dst)
}

// TestApplyTornStreamAppliesGoodPrefix: a batch whose last line was cut
// in transit applies every line before it and reports the tear.
func TestApplyTornStreamAppliesGoodPrefix(t *testing.T) {
	src, dst := newPeer(t, datastore.MustOpenMemory()), newPeer(t, datastore.MustOpenMemory())
	c := &replog.Client{}
	insert(t, src, 0, 5)
	lines, head, gone, err := c.Pull(src.url, 0, 0)
	if err != nil || gone || head != 5 || len(lines) != 5 {
		t.Fatalf("pull: %d lines, head %d, gone %v, err %v", len(lines), head, gone, err)
	}
	last := lines[4]
	lines[4] = last[:len(last)-4]
	ack, err := c.Apply(dst.url, lines)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Torn || ack.Applied != 4 || ack.Gen != 4 {
		t.Errorf("ack %+v, want 4 applied to gen 4, torn", ack)
	}
	if n, _ := dst.node.Store().C("m").Count(nil); n != 4 {
		t.Errorf("dst has %d docs, want 4", n)
	}
	if _, err := dst.node.Store().C("m").FindID("d04"); err == nil {
		t.Error("the torn entry was applied")
	}
}
