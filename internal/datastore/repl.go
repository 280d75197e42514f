package datastore

// Replication log surface. The CRC-checksummed journal doubles as a
// replication log: every mutation carries a store-wide generation minted
// in journal order, so a follower can catch up by pulling exactly the
// framed journal lines past its last applied generation and appending
// the same bytes to its own journal — one checksum protects the record
// from the primary's disk to the follower's.
//
// Pulls are served from a bounded in-memory ring of framed lines, turned
// on by EnableReplication for both store flavors:
//
//   - Memory stores record each mutation into the ring as it applies.
//   - Durable stores add each frame after the fsync that covers it, in
//     file order, so a dropped append stays a hole. The snapshot meta
//     record tracks the log floor ("base"): generations at or below it
//     have been folded into the snapshot and are only available via a
//     full state copy (ErrReplGap).
//
// Eviction from the ring moves the floor just like snapshot rotation
// does, so a follower behind the ring's oldest entry gets the snapshot
// copy.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"matproj/internal/document"
)

// ErrReplGap reports that the requested generation has rotated out of
// the log (snapshotted away or evicted from the ring); the follower must
// fall back to a full state copy (ReplSnapshot + ReplReset).
var ErrReplGap = errors.New("datastore: replication gap: generation rotated out of the log")

// DefaultReplRingCapacity bounds the replication ring when
// EnableReplication is called with a non-positive capacity.
const DefaultReplRingCapacity = 4096

// replState is the store-wide replication bookkeeping: the last minted/
// applied generation, the last generation settled into the log, the log
// floor, and the entry ring. Its mutex is leaf-level: nothing is called
// while it is held.
type replState struct {
	mu      sync.Mutex
	enabled bool   // ring recording on
	seq     uint64 // last minted/applied generation
	head    uint64 // last generation settled into the log (durable: fsynced)
	base    uint64
	cap     int
	ring    []replEntry // ascending generations
}

type replEntry struct {
	gen  uint64
	line []byte // framed "%08x <json>", no trailing newline
}

// next mints the following generation.
func (rs *replState) next() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.seq++
	return rs.seq
}

// current reports the last minted/applied generation.
func (rs *replState) current() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.seq
}

// observe advances seq to at least gen (replay / replicated applies).
func (rs *replState) observe(gen uint64) {
	rs.mu.Lock()
	if gen > rs.seq {
		rs.seq = gen
	}
	rs.mu.Unlock()
}

// observeBase advances the log floor (and seq) to at least gen, dropping
// the ring entries the floor now covers.
func (rs *replState) observeBase(gen uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if gen > rs.base {
		rs.base = gen
	}
	if gen > rs.seq {
		rs.seq = gen
	}
	for len(rs.ring) > 0 && rs.ring[0].gen <= rs.base {
		rs.dropOldestLocked()
	}
}

// enable turns on ring recording.
func (rs *replState) enable(capacity int) {
	if capacity <= 0 {
		capacity = DefaultReplRingCapacity
	}
	rs.mu.Lock()
	rs.enabled = true
	rs.cap = capacity
	rs.mu.Unlock()
}

// frameRecord marshals and checksums one record, newline stripped.
func frameRecord(rec journalRecord) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("datastore: repl frame: %w", err)
	}
	return bytes.TrimSuffix(encodeLine(b), []byte("\n")), nil
}

// record mints a generation for one local mutation of a memory store and
// stores its framed line in the ring. No-op unless enabled.
func (rs *replState) record(coll string, op journalOp, id string, doc document.D) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.enabled {
		return
	}
	var raw json.RawMessage
	if doc != nil {
		b, err := doc.ToJSON()
		if err != nil {
			return
		}
		raw = b
	}
	rs.seq++
	rs.head = rs.seq
	line, err := frameRecord(journalRecord{Op: op, Collection: coll, ID: id, Doc: raw, Gen: rs.seq})
	if err != nil {
		// The generation stays burned; the hole forces followers to a
		// snapshot copy rather than a silent divergence.
		return
	}
	rs.appendRingLocked(rs.seq, line)
}

// settle publishes entries that reached the log, in log order, and
// advances head to upto: every generation up to it is either in the ring
// or a hole (a dropped append) that pullers detect and heal with the
// snapshot copy. Ring entries are kept only when recording is enabled.
func (rs *replState) settle(entries []replEntry, upto uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.enabled {
		for _, e := range entries {
			rs.appendRingLocked(e.gen, e.line)
		}
	}
	if upto > rs.head {
		rs.head = upto
	}
}

// appendRingLocked adds one entry, evicting the oldest past capacity.
// Legacy (generation 0) and out-of-order lines are not servable and are
// skipped, so the ring stays sorted for tail's binary search.
func (rs *replState) appendRingLocked(gen uint64, line []byte) {
	if n := len(rs.ring); gen == 0 || gen <= rs.base || (n > 0 && gen <= rs.ring[n-1].gen) {
		return
	}
	rs.ring = append(rs.ring, replEntry{gen: gen, line: line})
	for len(rs.ring) > rs.cap {
		rs.base = rs.ring[0].gen
		rs.dropOldestLocked()
	}
}

// dropOldestLocked removes the oldest ring entry. Its line is released
// at once: the backing array keeps the slot until append reallocates.
func (rs *replState) dropOldestLocked() {
	rs.ring[0].line = nil
	rs.ring = rs.ring[1:]
}

// tail returns up to max framed ring entries with generation > from,
// plus head, in time proportional to the entries returned.
func (rs *replState) tail(from uint64, max int) ([][]byte, uint64, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if from < rs.base {
		return nil, rs.head, fmt.Errorf("%w: from=%d base=%d", ErrReplGap, from, rs.base)
	}
	i := sort.Search(len(rs.ring), func(i int) bool { return rs.ring[i].gen > from })
	n := len(rs.ring) - i
	if max > 0 && n > max {
		n = max
	}
	out := make([][]byte, n)
	for k := range out {
		out[k] = rs.ring[i+k].line
	}
	return out, rs.head, nil
}

// EnableReplication turns the store into a replication log source/sink:
// it equips the store with a bounded ring of the most recent capacity
// log entries (<=0 selects the default), which ReplTail serves. A durable
// store seeds the ring from its journal, so after a restart it still
// serves what it journaled since its last snapshot. Call once before
// traffic.
func (s *Store) EnableReplication(capacity int) {
	s.repl.enable(capacity)
	if j := s.journal.Load(); j != nil {
		j.seedRing()
	}
}

// ReplGen reports the store's last minted/applied replication generation.
func (s *Store) ReplGen() uint64 {
	return s.repl.current()
}

// ReplTail returns up to max framed log lines with generation > from,
// plus the head generation: the last one settled into the log (on a
// durable store, a write whose batch has not been fsynced yet is not).
// Lines are CRC-framed exactly as journaled ("%08x <json>", no newline)
// — the caller ships the bytes verbatim and the follower re-verifies the
// checksum before applying. Lines come from the ring EnableReplication
// turns on; ErrReplGap means from is older than the ring's oldest entry
// or the last snapshot.
func (s *Store) ReplTail(from uint64, max int) ([][]byte, uint64, error) {
	return s.repl.tail(from, max)
}

// ApplyReplEntries verifies and applies framed log lines shipped from a
// peer, journaling each locally. It applies the longest good prefix: a
// line failing its checksum or decode stops the batch and reports
// torn=true, and the caller re-pulls from the returned generation —
// truncate-and-resync, never apply a corrupt entry. Lines at or below
// the store's generation are already applied and are skipped, so
// overlapping batches (concurrent ships of the same entries) are
// harmless; batches apply one at a time. Legacy lines without a
// generation always apply. Returns the number of lines applied and the
// store's resulting generation.
func (s *Store) ApplyReplEntries(lines [][]byte) (applied int, gen uint64, torn bool, err error) {
	j := s.journal.Load()
	applied, last, torn, err := s.stageReplEntries(j, lines)
	// The whole shipment rides one group fsync, awaited after the apply
	// lock is released.
	if j != nil {
		if cerr := j.commit(last); cerr != nil && err == nil {
			err = fmt.Errorf("datastore: repl apply journal: %w", cerr)
		}
	}
	return applied, s.repl.current(), torn, err
}

// stageReplEntries applies the longest good prefix of lines under the
// apply lock, staging each applied line on the journal (j may be nil),
// and returns the last staged ticket.
func (s *Store) stageReplEntries(j *journal, lines [][]byte) (applied int, last *commitTicket, torn bool, err error) {
	s.replApplyMu.Lock()
	defer s.replApplyMu.Unlock()
	if s.closed.Load() {
		return 0, nil, false, ErrClosed
	}
	for _, line := range lines {
		payload, derr := decodeLine(line)
		var rec journalRecord
		if derr == nil {
			derr = json.Unmarshal(payload, &rec)
		}
		if derr != nil {
			return applied, last, true, nil
		}
		if rec.Op == journalMeta || (rec.Gen != 0 && rec.Gen <= s.repl.current()) {
			continue
		}
		if aerr := applyRecord(s, rec); aerr != nil {
			return applied, last, false, fmt.Errorf("datastore: repl apply: %w", aerr)
		}
		if j != nil {
			last = j.stageRaw(line, rec.Gen)
		} else {
			s.repl.settle([]replEntry{{gen: rec.Gen, line: line}}, rec.Gen)
		}
		applied++
	}
	return applied, last, false, nil
}

// ReplSnapshotEntries serializes the store's full current state as
// framed insert lines (one per document, plus drop-free collection
// bounds are implicit), for shipping to a follower whose generation has
// rotated out of the log. The head generation returned was read before
// the state scan, so state is a superset of head — re-applied log
// entries past head are idempotent.
func (s *Store) ReplSnapshotEntries() ([][]byte, uint64, error) {
	head := s.repl.current()
	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()
	var out [][]byte
	for _, c := range colls {
		c.mu.RLock()
		// Index definitions first, mirroring the on-disk snapshot layout:
		// the follower re-creates each index before any documents arrive,
		// so its indexes are maintained incrementally from the same
		// stream that builds its data.
		for _, rec := range c.indexDefRecordsLocked() {
			line, err := frameRecord(rec)
			if err != nil {
				c.mu.RUnlock()
				return nil, head, err
			}
			out = append(out, line)
		}
		for _, id := range c.order {
			b, err := c.docs[id].ToJSON()
			if err != nil {
				c.mu.RUnlock()
				return nil, head, fmt.Errorf("datastore: repl snapshot encode: %w", err)
			}
			line, err := frameRecord(journalRecord{Op: journalInsert, Collection: c.name, ID: id, Doc: b})
			if err != nil {
				c.mu.RUnlock()
				return nil, head, err
			}
			out = append(out, line)
		}
		c.mu.RUnlock()
	}
	return out, head, nil
}

// ReplReset replaces the store's entire state with the shipped snapshot
// lines and fast-forwards the replication position to upto. Durable
// stores immediately rewrite their on-disk snapshot (and truncate the
// journal) so a restart replays the new state, not the pre-reset one.
func (s *Store) ReplReset(lines [][]byte, upto uint64) error {
	s.replApplyMu.Lock()
	defer s.replApplyMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	s.collections = make(map[string]*Collection)
	s.mu.Unlock()
	for _, line := range lines {
		payload, derr := decodeLine(line)
		var rec journalRecord
		if derr == nil {
			derr = json.Unmarshal(payload, &rec)
		}
		if derr != nil {
			return fmt.Errorf("datastore: repl reset: corrupt snapshot line: %w", derr)
		}
		if rec.Op == journalMeta {
			continue
		}
		if err := applyRecord(s, rec); err != nil {
			return fmt.Errorf("datastore: repl reset: %w", err)
		}
	}
	s.repl.mu.Lock()
	s.repl.seq = upto
	s.repl.head = upto
	s.repl.base = upto
	s.repl.ring = nil
	s.repl.mu.Unlock()
	if j := s.journal.Load(); j != nil {
		if err := j.snapshot(s); err != nil {
			return fmt.Errorf("datastore: repl reset snapshot: %w", err)
		}
	}
	return nil
}
