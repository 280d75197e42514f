// Package datastore implements the document-oriented NoSQL store at the
// center of the Materials Project architecture (the role MongoDB plays in
// the paper). A Store holds named Collections of JSON-like documents and
// supports Mongo-style queries, atomic updates, find-and-modify (the
// primitive the workflow engine uses to claim jobs), ordered secondary
// indexes (compound, multikey over arrays), cursors, distinct, and
// optional durability via an append-only journal plus snapshots. The
// MapReduce engines, MongoDB's single-threaded built-in included, live in
// package mapreduce.
//
// The same deployment simultaneously serves as (a) workflow state manager,
// (b) analytics store, and (c) web back-end — the paper's first
// contribution.
package datastore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"matproj/internal/obs"
)

// Store is a database: a set of named collections. All methods are safe
// for concurrent use.
type Store struct {
	mu          sync.RWMutex
	collections map[string]*Collection
	profiler    *Profiler
	recovery    RecoveryStats

	// journal is nil for memory-only stores. It is an atomic pointer —
	// not guarded by s.mu — because mutators look it up while holding
	// their collection's write lock (records are staged under c.mu so
	// journal order matches apply order), and taking s.mu there would
	// close a lock cycle with Stats (s.mu → c.mu).
	journal atomic.Pointer[journal]

	// closed is set by Close. Every mutator checks it under its
	// collection's write lock (or replApplyMu) before applying, and
	// fails with ErrClosed once it is set; reads keep working.
	closed atomic.Bool

	// repl tracks replication generations and, once replication is
	// enabled, a bounded ring of framed log entries. It has its own
	// mutex; see repl.go. replApplyMu makes each shipped batch apply as
	// a unit.
	repl        replState
	replApplyMu sync.Mutex

	// Live observability (nil when not wired): every profiled operation
	// also lands in the registry, and slow ops in the tracer's log.
	obsReg atomic.Pointer[obs.Registry]
	obsTr  atomic.Pointer[obs.Tracer]
}

// Open creates an in-memory store. If dir is non-empty, the store is
// durable: existing snapshot and journal files in dir are replayed on
// open (repairing a torn journal tail if the previous process crashed
// mid-write), and subsequent writes append to the journal. What replay
// found is available via Recovery.
func Open(dir string) (*Store, error) {
	s := &Store{
		collections: make(map[string]*Collection),
		profiler:    NewProfiler(4096),
	}
	if dir != "" {
		if err := openJournalDir(dir); err != nil {
			return nil, err
		}
		// Replay (and repair) before opening the append handle so the
		// handle's offset reflects any tail truncation.
		stats, err := replay(s, dir)
		if err != nil {
			return nil, err
		}
		j, err := openAppend(dir)
		if err != nil {
			return nil, err
		}
		// Durable stores always mint generations: the journal is the
		// replication log. Replay restored seq/base from the records
		// (and snapshot meta) already on disk, all of it settled.
		s.repl.settle(nil, s.repl.current())
		j.repl = &s.repl
		s.journal.Store(j)
		s.recovery = stats
	}
	return s, nil
}

// Recovery reports what replay found when this store was opened: how
// many records were loaded from snapshot and journal, and whether a
// torn journal tail was repaired. Zero-valued for memory-only stores.
func (s *Store) Recovery() RecoveryStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recovery
}

// Observe wires the store's hot paths into a metrics registry and slow-op
// tracer (either may be nil). Per-collection operation counters, per-op
// latency histograms, journal append/fsync/snapshot timings, and the
// recovery stats from open all become visible. Safe to call while
// traffic is flowing.
func (s *Store) Observe(reg *obs.Registry, tr *obs.Tracer) {
	s.obsReg.Store(reg)
	s.obsTr.Store(tr)
	j := s.journal.Load()
	s.mu.RLock()
	rec := s.recovery
	s.mu.RUnlock()
	if j != nil {
		j.mu.Lock()
		j.obs = reg
		j.mu.Unlock()
	}
	if reg != nil {
		reg.Counter("datastore.recovery.snapshot_records").Add(uint64(rec.SnapshotRecords))
		reg.Counter("datastore.recovery.journal_records").Add(uint64(rec.JournalRecords))
		reg.Counter("datastore.recovery.dropped_records").Add(uint64(rec.DroppedRecords))
		reg.Counter("datastore.recovery.truncated_bytes").Add(uint64(rec.TruncatedBytes))
		if rec.Repaired {
			reg.Counter("datastore.recovery.repaired").Inc()
		}
	}
}

// metrics returns the wired registry and tracer (either may be nil).
func (s *Store) metrics() (*obs.Registry, *obs.Tracer) {
	return s.obsReg.Load(), s.obsTr.Load()
}

// InjectJournalFaults installs a fault injector on the journal append
// path (chaos testing). Passing nil removes it. No-op for memory-only
// stores.
func (s *Store) InjectJournalFaults(f JournalFaults) {
	j := s.journal.Load()
	if j == nil {
		return
	}
	j.mu.Lock()
	j.faults = f
	j.mu.Unlock()
}

// MustOpenMemory returns an in-memory store, panicking on the (impossible
// for memory stores) error path. For tests and examples.
func MustOpenMemory() *Store {
	s, err := Open("")
	if err != nil {
		panic(err)
	}
	return s
}

// Close flushes and closes the journal, if any. After Close every
// mutator returns ErrClosed without applying anything, and reads keep
// working. Close marks the store closed, then takes and releases every
// collection lock and the replication apply lock: a mutator that saw the
// store open holds one of those until its record is staged, so once they
// have all been passed no write can still apply. Only then is the
// journal pointer detached and closed; close drains what was staged,
// and a frame that still reaches the detached journal fails with
// ErrClosed rather than being acknowledged.
func (s *Store) Close() error {
	s.closed.Store(true)
	s.replApplyMu.Lock()
	s.replApplyMu.Unlock()
	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()
	for _, c := range colls {
		c.mu.Lock()
		c.mu.Unlock()
	}
	if j := s.journal.Swap(nil); j != nil {
		return j.close()
	}
	return nil
}

// C returns the named collection, creating it on first use (MongoDB
// semantics: collections appear implicitly).
func (s *Store) C(name string) *Collection {
	s.mu.RLock()
	c, ok := s.collections[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.collections[name]; ok {
		return c
	}
	c = newCollection(name, s)
	s.collections[name] = c
	return c
}

// Collections returns the names of all collections, sorted.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.collections))
	for n := range s.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DropCollection removes a collection and all its documents and
// indexes. On a closed store it does nothing. The drop record is staged
// under s.mu, which Close also passes before detaching the journal.
func (s *Store) DropCollection(name string) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	delete(s.collections, name)
	j := s.journal.Load()
	var t *commitTicket
	if j != nil {
		t = j.stage(journalRecord{Op: journalDrop, Collection: name})
	} else {
		s.repl.record(name, journalDrop, "", nil)
	}
	s.mu.Unlock()
	if j != nil {
		_ = j.commit(t)
	}
}

// Profiler returns the store-wide query profiler (the source of the
// Fig. 5 latency data).
func (s *Store) Profiler() *Profiler { return s.profiler }

// Snapshot writes a full snapshot of every collection and truncates the
// journal. No-op for memory-only stores.
func (s *Store) Snapshot() error {
	j := s.journal.Load()
	if j == nil {
		return nil
	}
	return j.snapshot(s)
}

// Stats summarizes the whole store.
type StoreStats struct {
	Collections int
	Documents   int
	Bytes       int
}

// Stats reports document and byte counts over all collections.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st StoreStats
	st.Collections = len(s.collections)
	for _, c := range s.collections {
		cs := c.Stats()
		st.Documents += cs.Documents
		st.Bytes += cs.Bytes
	}
	return st
}

// Profiler records per-operation latencies in a bounded ring, exactly the
// data behind the paper's Fig. 5 histogram and time-series inset.
type Profiler struct {
	mu      sync.Mutex
	ring    []ProfileEntry
	next    int
	filled  bool
	total   uint64
	records uint64
}

// ProfileEntry is one profiled operation.
type ProfileEntry struct {
	Collection string
	Op         string // "find", "update", "insert", ...
	Duration   time.Duration
	Returned   int
	At         time.Time
}

// NewProfiler returns a profiler retaining the most recent n entries.
func NewProfiler(n int) *Profiler {
	if n <= 0 {
		n = 1
	}
	return &Profiler{ring: make([]ProfileEntry, n)}
}

// Record appends an entry to the ring.
func (p *Profiler) Record(e ProfileEntry) {
	p.mu.Lock()
	p.ring[p.next] = e
	p.next++
	if p.next == len(p.ring) {
		p.next = 0
		p.filled = true
	}
	p.total++
	p.records += uint64(e.Returned)
	p.mu.Unlock()
}

// Entries returns the retained entries, oldest first.
func (p *Profiler) Entries() []ProfileEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.filled {
		out := make([]ProfileEntry, p.next)
		copy(out, p.ring[:p.next])
		return out
	}
	out := make([]ProfileEntry, 0, len(p.ring))
	out = append(out, p.ring[p.next:]...)
	out = append(out, p.ring[:p.next]...)
	return out
}

// Totals reports the lifetime operation and returned-record counts,
// matching the paper's "3315 distinct queries returning a total of
// 12,951,099 records" style of accounting.
func (p *Profiler) Totals() (ops, records uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total, p.records
}

// ErrNotFound is returned by operations that require a matching document
// when none exists.
var ErrNotFound = fmt.Errorf("datastore: no matching document")

// ErrClosed is returned by every mutator of a store after Close, before
// anything is applied. Reads on a closed store keep working.
var ErrClosed = errors.New("datastore: store is closed")

// ErrDuplicateID is returned when inserting a document whose _id already
// exists in the collection.
var ErrDuplicateID = fmt.Errorf("datastore: duplicate _id")
