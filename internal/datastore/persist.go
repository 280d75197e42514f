package datastore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"matproj/internal/document"
	"matproj/internal/obs"
)

// Durability: the store appends every write to a checksummed JSON-lines
// journal through a group-commit queue — mutators stage framed records
// while holding their collection's write lock (so journal order matches
// apply order), and a leader caller drains the queue in batches, making
// each batch durable with a single fsync before acknowledging every
// record it covers. A snapshot atomically rewrites the full contents of
// every collection into a snapshot file (write-temp, fsync, rename) and
// truncates the journal; on open, the snapshot is loaded and the journal
// replayed on top.
//
//lint:file-ignore lockheld the journal mutex exists to serialize file I/O: batches must reach the file in acknowledge order, so the critical section intentionally spans the write and fsync
//
// Crash safety. Each journal line carries a CRC32-C of its payload
// ("%08x <json>\n"), so a write torn by a crash — a partial line, a
// missing newline, a line whose checksum does not match — is detected on
// replay. A torn *tail* (one or more bad lines with no valid record
// after them) is the expected signature of a crash mid-append: replay
// truncates the journal back to the last valid record, records what was
// dropped in RecoveryStats, and the store opens normally. Corruption in
// the *middle* of the journal (valid records after a bad line) cannot be
// explained by a torn final write and is reported as an error rather
// than silently dropping acknowledged history. Lines beginning with '{'
// are accepted without a checksum for compatibility with journals
// written before checksumming.

type journalOp string

const (
	journalInsert journalOp = "i"
	journalUpdate journalOp = "u"
	journalRemove journalOp = "r"
	journalDrop   journalOp = "d"
	// journalIndex / journalIndexDrop record index definitions so crash
	// recovery and replica catch-up rebuild them. The record's ID is the
	// index name; Doc carries the definition payload ({"ordered": true,
	// "paths": [...]}; legacy single-path records carry {"path": p}).
	// The indexed data itself is never journaled — replay re-creates
	// the definition and backfills from the documents.
	journalIndex     journalOp = "x"
	journalIndexDrop journalOp = "X"
	// journalMeta carries replication bookkeeping, not data: the first
	// line of every snapshot records the replication generation the
	// snapshot covers, so replay can restore the log's floor.
	journalMeta journalOp = "m"
)

type journalRecord struct {
	Op         journalOp       `json:"op"`
	Collection string          `json:"c,omitempty"`
	ID         string          `json:"id,omitempty"`
	Doc        json.RawMessage `json:"doc,omitempty"`
	// Gen is the store-wide replication generation of this mutation.
	// Gens are minted under the journal mutex, so journal file order is
	// generation order. Zero on legacy (pre-replication) records.
	Gen uint64 `json:"g,omitempty"`
}

// indexDef is the Doc payload of a journalIndex record. Path is the
// legacy single-path record ({"path": p}) written before every index
// was ordered; replay maps it to the one-component index named p.
type indexDef struct {
	Path  string   `json:"path,omitempty"`
	Paths []string `json:"paths,omitempty"`
}

// indexDefRecordsLocked renders the collection's index definitions as
// journal records, sorted by name for deterministic snapshots. Caller
// holds c.mu.
func (c *Collection) indexDefRecordsLocked() []journalRecord {
	names := make([]string, 0, len(c.ordered))
	for n := range c.ordered {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]journalRecord, 0, len(names))
	for _, n := range names {
		b, err := orderedIndexDefDoc(c.ordered[n].paths).ToJSON()
		if err != nil {
			continue
		}
		out = append(out, journalRecord{Op: journalIndex, Collection: c.name, ID: n, Doc: b})
	}
	return out
}

// JournalFaults lets a fault injector interfere with journal appends.
// Implemented by *faults.Injector; declared here so the storage layer
// stays free of test-harness imports.
type JournalFaults interface {
	// DropAppend reports whether the next append should be silently
	// lost (simulating a crash between acknowledge and write-out).
	DropAppend() bool
	// AppendDelay returns how long the next append should stall.
	AppendDelay() time.Duration
}

type journal struct {
	mu     sync.Mutex
	dir    string
	file   *os.File
	w      *bufio.Writer
	faults JournalFaults
	// werr records the first write/flush/fsync failure. It is sticky:
	// once set, every later commit fails fast (so an acknowledged write
	// can never outlive an earlier lost one) and close() surfaces it — a
	// store shut down after a failed append reports that acknowledged
	// writes may not be durable instead of pretending the journal is
	// intact. Guarded by mu.
	werr error
	// obs, when set, receives append/fsync/snapshot latencies and
	// counters. Guarded by mu like the rest of the journal state.
	obs *obs.Registry
	// repl mints and tracks replication generations for the owning
	// store. Set once before the journal serves appends; the pointer is
	// immutable afterwards (replState has its own mutex).
	repl *replState

	// Group-commit queue. Mutators stage framed records here while
	// holding their collection's write lock (so queue order == apply
	// order), then commit after releasing it. The first committer to
	// find the queue unled becomes the leader: it drains pending frames
	// in batches, writes each batch under j.mu, and makes the whole
	// batch durable with ONE fsync before resolving its tickets. qmu is
	// a leaf mutex ordered after c.mu and before rs.mu; it is never held
	// across I/O (j.mu is taken only with qmu released).
	qmu        sync.Mutex
	pending    []pendingFrame
	committing bool
}

// commitTicket is one staged record's handle on the group commit that
// will cover it. ch closes when the record's batch is durable (or has
// failed); err is valid after ch closes.
type commitTicket struct {
	ch  chan struct{}
	err error
}

// pendingFrame is one framed journal line awaiting its group commit.
type pendingFrame struct {
	line []byte // checksum-framed, newline-terminated
	gen  uint64 // replication generation (0 on legacy lines)
	t    *commitTicket
}

// RecoveryStats describes what replay found when a durable store was
// opened: how much state was recovered and whether the journal tail had
// to be repaired.
type RecoveryStats struct {
	// SnapshotRecords and JournalRecords count the records applied from
	// each file.
	SnapshotRecords int
	JournalRecords  int
	// DroppedRecords counts torn/corrupt trailing lines discarded
	// during repair; TruncatedBytes is how far the journal was cut back.
	DroppedRecords int
	TruncatedBytes int64
	// Repaired is true when a torn journal tail was truncated.
	Repaired bool
}

func journalPath(dir string) string  { return filepath.Join(dir, "journal.ndjson") }
func snapshotPath(dir string) string { return filepath.Join(dir, "snapshot.ndjson") }

// JournalFile returns the path of the journal inside a durable store's
// directory. Exposed for fault-injection harnesses that tear the tail.
func JournalFile(dir string) string { return journalPath(dir) }

// SnapshotFile returns the path of the snapshot inside a durable
// store's directory.
func SnapshotFile(dir string) string { return snapshotPath(dir) }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeLine frames one journal record: "%08x <json>\n".
func encodeLine(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+10)
	out = append(out, fmt.Sprintf("%08x ", crc32.Checksum(payload, crcTable))...)
	out = append(out, payload...)
	out = append(out, '\n')
	return out
}

// decodeLine validates and strips the checksum frame. Legacy lines
// beginning with '{' pass through unchecked.
func decodeLine(line []byte) ([]byte, error) {
	if len(line) > 0 && line[0] == '{' {
		return line, nil
	}
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("short or unframed line")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("bad checksum field: %w", err)
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, crcTable); got != uint32(want) {
		return nil, fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}

// openJournalDir prepares dir but does not open the append handle; that
// happens after replay so a repaired (truncated) journal is not held
// open across the truncation.
func openJournalDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("datastore: create dir: %w", err)
	}
	return nil
}

// openAppend opens the append handle once replay (and any tail repair)
// has finished.
func openAppend(dir string) (*journal, error) {
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("datastore: open journal: %w", err)
	}
	return &journal{dir: dir, file: f, w: bufio.NewWriter(f)}, nil
}

func (j *journal) close() error {
	// Stage/commit pairs normally drain the queue before returning, but
	// a close racing the tail of a commit can still find frames pending;
	// write them out while the file is open so nothing acked is lost.
	j.drain()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return j.werr
	}
	if err := j.w.Flush(); err != nil {
		j.file.Close()
		j.file = nil
		return err
	}
	if err := j.syncTimed(j.file); err != nil {
		j.file.Close()
		j.file = nil
		return err
	}
	err := j.file.Close()
	j.file = nil
	if err == nil {
		err = j.werr
	}
	return err
}

// syncTimed fsyncs f and records the latency when the journal is observed.
func (j *journal) syncTimed(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	j.obs.LatencyHistogram("datastore.journal.fsync_ms").ObserveDuration(time.Since(start))
	return err
}

// stage frames rec and enqueues it for the next group commit, minting
// its replication generation. Callers invoke stage while holding the
// owning collection's write lock, so enqueue order — which is also
// generation order and, because batches drain FIFO, journal file order —
// provably matches in-memory apply order. The returned ticket must be
// handed to commit (after the collection lock is released) to make the
// record durable; nil means there was nothing to stage.
func (j *journal) stage(rec journalRecord) *commitTicket {
	j.qmu.Lock()
	defer j.qmu.Unlock()
	// Mint the generation atomically with enqueueing: a dropped append
	// still mutated memory, so its generation must stay burned —
	// followers detect the hole (head advanced, entry unavailable) and
	// fall back to a snapshot copy instead of believing they are caught
	// up. The record is encoded once, with its generation.
	if j.repl != nil && rec.Gen == 0 && rec.Op != journalMeta {
		rec.Gen = j.repl.next()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return nil
	}
	t := &commitTicket{ch: make(chan struct{})}
	j.pending = append(j.pending, pendingFrame{line: encodeLine(b), gen: rec.Gen, t: t})
	return t
}

// stageRaw enqueues one pre-framed line (checksum prefix, no trailing
// newline) of generation gen exactly as received. Used when applying
// replicated entries: the follower's journal carries the primary's bytes
// — same checksums, same generations — so a re-opened follower replays
// to the same state.
func (j *journal) stageRaw(line []byte, gen uint64) *commitTicket {
	framed := make([]byte, 0, len(line)+1)
	framed = append(framed, line...)
	framed = append(framed, '\n')
	t := &commitTicket{ch: make(chan struct{})}
	j.qmu.Lock()
	j.pending = append(j.pending, pendingFrame{line: framed, gen: gen, t: t})
	j.qmu.Unlock()
	return t
}

// commit makes t's record durable and returns the result of the fsync
// that covered it. The caller either becomes the commit leader (drains
// the queue itself) or, when another caller is already leading, waits
// for that leader to write and sync the batch containing its frame —
// this is the group commit: one fsync acks every record in the batch.
//
// Resolution is guaranteed: a leader only steps down after observing an
// empty queue under qmu, and stage/commit pairs are ordered, so any
// frame staged before commit is either already resolved or will be
// drained by the active leader before it steps down.
func (j *journal) commit(t *commitTicket) error {
	if t == nil {
		return nil
	}
	j.drain()
	<-t.ch
	return t.err
}

// drain takes commit leadership if nobody holds it and writes every
// pending batch. Each iteration swaps out the whole queue as one batch;
// frames staged while a batch is being written form the next batch.
func (j *journal) drain() {
	j.qmu.Lock()
	if j.committing {
		j.qmu.Unlock()
		return
	}
	j.committing = true
	for len(j.pending) > 0 {
		batch := j.pending
		j.pending = nil
		j.qmu.Unlock()
		j.writeBatch(batch)
		j.qmu.Lock()
	}
	j.committing = false
	j.qmu.Unlock()
}

// writeBatch writes one batch of frames under j.mu, makes them durable
// with a single fsync, and resolves every ticket with the outcome. Per
// the sticky-error contract, once werr is set no later frame is written:
// an acknowledged record must never survive a crash that lost an
// earlier acknowledged one. Once the fsync covers them, the written
// frames settle into the replication ring in file order; a dropped or
// failed frame leaves a hole.
func (j *journal) writeBatch(batch []pendingFrame) {
	j.mu.Lock()
	if j.file == nil {
		// Journal detached by Close: resolve with the terminal state
		// close() recorded, and never with success.
		err := j.werr
		if err == nil {
			err = ErrClosed
		}
		j.mu.Unlock()
		for _, f := range batch {
			f.t.err = err
			close(f.t.ch)
		}
		return
	}
	start := time.Now()
	wrote := 0
	var written []replEntry
	var upto uint64
	for _, f := range batch {
		upto = max(upto, f.gen)
		if j.werr != nil {
			break
		}
		if j.faults != nil {
			if d := j.faults.AppendDelay(); d > 0 {
				//lint:ignore clockdiscipline the injected append stall simulates a slow disk; real elapsed time is the point
				time.Sleep(d)
			}
			if j.faults.DropAppend() {
				// Simulates loss between acknowledge and write-out: the
				// record's ticket still resolves OK, but the bytes never
				// reach the file.
				j.obs.Counter("datastore.journal.dropped_appends").Inc()
				continue
			}
		}
		if _, err := j.w.Write(f.line); err != nil {
			j.recordWriteErrLocked(err)
			break
		}
		wrote++
		written = append(written, replEntry{gen: f.gen, line: f.line[:len(f.line)-1]})
	}
	if j.werr == nil && wrote > 0 {
		if err := j.w.Flush(); err != nil {
			j.recordWriteErrLocked(err)
		} else if err := j.syncTimed(j.file); err != nil {
			j.recordWriteErrLocked(err)
		}
	}
	err := j.werr
	if j.repl != nil {
		if err != nil {
			written = nil
		}
		j.repl.settle(written, upto)
	}
	j.obs.Counter("datastore.journal.appends").Add(uint64(wrote))
	j.obs.Counter("datastore.journal.commits").Inc()
	if len(batch) > 1 {
		j.obs.Counter("datastore.journal.group_commits").Inc()
		j.obs.Counter("datastore.journal.group_committed_records").Add(uint64(len(batch)))
	}
	j.obs.LatencyHistogram("datastore.journal.commit_ms").ObserveDuration(time.Since(start))
	j.mu.Unlock()
	for _, f := range batch {
		f.t.err = err
		close(f.t.ch)
	}
}

// recordWriteErrLocked notes a failed append so close() can surface it.
// Callers hold j.mu.
func (j *journal) recordWriteErrLocked(err error) {
	if j.werr == nil {
		j.werr = fmt.Errorf("datastore: journal append: %w", err)
	}
	j.obs.Counter("datastore.journal.append_errors").Inc()
}

// stageWrite frames one mutation record for the group commit. Callers
// hold the owning collection's write lock; see stage.
func (j *journal) stageWrite(coll string, op journalOp, id string, doc document.D) *commitTicket {
	var raw json.RawMessage
	if doc != nil {
		b, err := doc.ToJSON()
		if err != nil {
			return nil
		}
		raw = b
	}
	return j.stage(journalRecord{Op: op, Collection: coll, ID: id, Doc: raw})
}

// replay loads the snapshot then re-applies the journal into s. Called
// before s.journal is set, so replayed writes are not re-journaled. The
// snapshot is written atomically and must be intact; the journal's tail
// may be torn and is repaired.
func replay(s *Store, dir string) (RecoveryStats, error) {
	var stats RecoveryStats
	n, _, err := replayFile(s, snapshotPath(dir), false)
	if err != nil {
		return stats, err
	}
	stats.SnapshotRecords = n
	n, rep, err := replayFile(s, journalPath(dir), true)
	if err != nil {
		return stats, err
	}
	stats.JournalRecords = n
	stats.DroppedRecords = rep.dropped
	stats.TruncatedBytes = rep.truncatedBytes
	stats.Repaired = rep.repaired
	return stats, nil
}

type repairInfo struct {
	dropped        int
	truncatedBytes int64
	repaired       bool
}

// replayFile applies one snapshot/journal file to s. When repairTail is
// set, malformed trailing lines (with no valid record after them) are
// dropped and the file truncated back to the last valid record;
// malformed lines *followed by* valid records are an error either way.
func replayFile(s *Store, path string, repairTail bool) (int, repairInfo, error) {
	var rep repairInfo
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, rep, nil
		}
		return 0, rep, fmt.Errorf("datastore: open %s: %w", path, err)
	}

	type badLine struct {
		line   int
		offset int64
		err    error
	}
	var (
		r       = bufio.NewReaderSize(f, 1<<20)
		offset  int64 // start of the current line
		goodEnd int64 // end offset of the last valid record
		line    int
		applied int
		bad     []badLine
	)
	for {
		raw, rerr := r.ReadBytes('\n')
		if len(raw) == 0 && rerr != nil {
			break
		}
		line++
		lineStart := offset
		offset += int64(len(raw))
		torn := rerr != nil // no trailing newline: partial final write
		data := bytes.TrimSuffix(raw, []byte("\n"))
		if len(data) == 0 {
			if !torn && len(bad) == 0 {
				goodEnd = offset
			}
			if rerr != nil {
				break
			}
			continue
		}
		// A torn (newline-less) final line can still be complete — e.g.
		// only the '\n' itself was lost — so every line gets the same
		// treatment: accept iff checksum and JSON both decode.
		payload, derr := decodeLine(data)
		var rec journalRecord
		if derr == nil {
			derr = json.Unmarshal(payload, &rec)
		}
		if derr != nil {
			bad = append(bad, badLine{line: line, offset: lineStart, err: derr})
			if rerr != nil {
				break
			}
			continue
		}
		if len(bad) > 0 {
			f.Close()
			return applied, rep, fmt.Errorf("datastore: %s line %d: corrupt record followed by valid data (not a torn tail): %v",
				path, bad[0].line, bad[0].err)
		}
		if aerr := applyRecord(s, rec); aerr != nil {
			f.Close()
			return applied, rep, fmt.Errorf("datastore: %s line %d: %w", path, line, aerr)
		}
		applied++
		goodEnd = offset
		if rerr != nil {
			break
		}
	}
	f.Close()

	if len(bad) == 0 {
		return applied, rep, nil
	}
	if !repairTail {
		return applied, rep, fmt.Errorf("datastore: %s line %d: %v", path, bad[0].line, bad[0].err)
	}
	// Torn tail: every line after goodEnd is bad. Cut them off.
	rep.dropped = len(bad)
	rep.truncatedBytes = offset - goodEnd
	rep.repaired = true
	if err := os.Truncate(path, goodEnd); err != nil {
		return applied, rep, fmt.Errorf("datastore: repair %s: %w", path, err)
	}
	return applied, rep, nil
}

func applyRecord(s *Store, rec journalRecord) error {
	if rec.Op == journalMeta {
		// Snapshot header: everything at or below Gen lives in the
		// snapshot, not the journal.
		s.repl.observeBase(rec.Gen)
		return nil
	}
	if rec.Gen != 0 {
		s.repl.observe(rec.Gen)
	}
	c := s.C(rec.Collection)
	switch rec.Op {
	case journalInsert, journalUpdate:
		d, err := document.FromJSON(rec.Doc)
		if err != nil {
			return fmt.Errorf("doc: %w", err)
		}
		c.mu.Lock()
		if _, exists := c.docs[rec.ID]; exists {
			c.replaceLocked(rec.ID, d)
		} else {
			c.insertLocked(rec.ID, d)
		}
		c.mu.Unlock()
	case journalRemove:
		c.mu.Lock()
		c.removeLocked(rec.ID)
		c.mu.Unlock()
	case journalIndex, journalIndexDrop:
		var def indexDef
		if len(rec.Doc) > 0 {
			if err := json.Unmarshal(rec.Doc, &def); err != nil {
				return fmt.Errorf("index def: %w", err)
			}
		}
		c.mu.Lock()
		if rec.Op == journalIndex {
			switch {
			case len(def.Paths) > 0:
				c.ensureOrderedLocked(def.Paths)
			case def.Path != "":
				c.ensureOrderedLocked([]string{def.Path})
			}
		} else {
			// A drop's record ID is the index name (for a legacy
			// single-path drop, the path: the one-component index's name).
			delete(c.ordered, rec.ID)
			// Every other mutation path bumps inside the lock (the
			// *Locked helpers do it themselves); a replayed drop must
			// too, or cached plans keep validating against the index
			// that no longer exists.
			c.bumpGenLocked()
		}
		c.mu.Unlock()
	case journalDrop:
		s.mu.Lock()
		delete(s.collections, rec.Collection)
		s.mu.Unlock()
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// snapshot serializes every collection to the snapshot file and truncates
// the journal. The rotation is atomic and crash-ordered: the temp file is
// fully written and fsynced before the rename, and the journal is only
// truncated after the rename lands, so a crash at any point leaves
// either (old snapshot + full journal) or (new snapshot + journal in
// some state ≥ empty) — both replayable.
func (j *journal) snapshot(s *Store) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	snapStart := time.Now()
	defer func() {
		j.obs.Counter("datastore.journal.snapshots").Inc()
		j.obs.LatencyHistogram("datastore.journal.snapshot_ms").ObserveDuration(time.Since(snapStart))
	}()
	tmp := snapshotPath(j.dir) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("datastore: snapshot: %w", err)
	}
	w := bufio.NewWriter(f)

	// Header: the replication generation this snapshot covers. Batch
	// writes hold j.mu, so no frame can reach the journal while the
	// snapshot runs. Generations are minted at stage time, inside the
	// collection write lock, so every minted generation ≤ head has
	// already been applied in memory and is captured by the state scan
	// below; any of its frames still pending in the commit queue land in
	// the rotated journal afterwards and replay idempotently.
	var head uint64
	if j.repl != nil {
		head = j.repl.current()
		mb, merr := json.Marshal(journalRecord{Op: journalMeta, Gen: head})
		if merr != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("datastore: snapshot meta: %w", merr)
		}
		if _, werr := w.Write(encodeLine(mb)); werr != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("datastore: snapshot meta: %w", werr)
		}
	}

	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()

	for _, c := range colls {
		if err := snapshotCollection(w, c); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	syncStart := time.Now()
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	j.obs.LatencyHistogram("datastore.journal.fsync_ms").ObserveDuration(time.Since(syncStart))
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, snapshotPath(j.dir)); err != nil {
		return err
	}
	syncDir(j.dir)
	// Truncate the journal now that its contents are in the snapshot.
	// A rotation failure leaves the journal un-truncated, which is
	// safe: replay applies the (idempotent) journal on top of the new
	// snapshot.
	if j.file != nil {
		if err := j.w.Flush(); err != nil {
			return fmt.Errorf("datastore: rotate journal: %w", err)
		}
		if err := j.syncTimed(j.file); err != nil {
			return fmt.Errorf("datastore: rotate journal: %w", err)
		}
		err := j.file.Close()
		j.file = nil
		if err != nil {
			j.recordWriteErrLocked(err)
			return fmt.Errorf("datastore: rotate journal: %w", err)
		}
	}
	if err := os.Truncate(journalPath(j.dir), 0); err != nil {
		return err
	}
	nf, err := os.OpenFile(journalPath(j.dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	j.file = nf
	j.w = bufio.NewWriter(nf)
	if j.repl != nil {
		// Generations at or below head now live only in the snapshot;
		// log pulls from below must fall back to a snapshot copy.
		j.repl.observeBase(head)
	}
	return nil
}

// seedRing loads the journal's records into the replication ring, so a
// reopened durable store still serves incremental catch-up for what it
// journaled since its last snapshot. It reads under j.mu, so no batch can
// reach the file (or the ring) mid-scan. Reading stops at the first bad
// line; pullers behind a short ring take the snapshot copy.
func (j *journal) seedRing() {
	j.mu.Lock()
	defer j.mu.Unlock()
	f, err := os.Open(journalPath(j.dir))
	if err != nil {
		return
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		raw, rerr := r.ReadBytes('\n')
		data := bytes.TrimSuffix(raw, []byte("\n"))
		payload, derr := decodeLine(data)
		var rec journalRecord
		if derr == nil {
			derr = json.Unmarshal(payload, &rec)
		}
		if derr != nil {
			break
		}
		// One entry at a time: the ring stays bounded however long the
		// journal is.
		j.repl.settle([]replEntry{{gen: rec.Gen, line: data}}, 0)
		if rerr != nil {
			break
		}
	}
}

// snapshotCollection encodes every document of c into w under the
// collection's read lock. Only buffered writes happen while the lock
// is held; flush and fsync run after every collection is released, so
// the store keeps serving writes to other collections during the disk
// work.
func snapshotCollection(w *bufio.Writer, c *Collection) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Index definitions first, so replay has them in place before the
	// documents arrive (backfill-on-create is then a no-op and every
	// insert maintains the index incrementally).
	for _, rec := range c.indexDefRecordsLocked() {
		rb, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("datastore: snapshot index encode: %w", err)
		}
		if _, err := w.Write(encodeLine(rb)); err != nil {
			return fmt.Errorf("datastore: snapshot write: %w", err)
		}
	}
	for _, id := range c.order {
		b, err := c.docs[id].ToJSON()
		if err != nil {
			return fmt.Errorf("datastore: snapshot doc encode: %w", err)
		}
		rec := journalRecord{Op: journalInsert, Collection: c.name, ID: id, Doc: b}
		rb, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("datastore: snapshot encode: %w", err)
		}
		if _, err := w.Write(encodeLine(rb)); err != nil {
			return fmt.Errorf("datastore: snapshot write: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	// Best-effort by design: some filesystems reject directory fsync and
	// the rename above is already durable on the ones we target. The
	// blank assignment records the decision, so no fsyncerr suppression
	// is needed.
	_ = d.Sync()
	d.Close()
}
