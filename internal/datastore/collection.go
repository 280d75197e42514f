package datastore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matproj/internal/document"
	"matproj/internal/query"
)

var idCounter atomic.Uint64

// nextID generates a process-unique object id.
func nextID() string {
	return fmt.Sprintf("oid%012x", idCounter.Add(1))
}

// noteOID advances the id allocator past a generated-format id ("oid"
// followed by hex). Every insert that reaches insertLocked — journal
// replay, snapshot restore, ReplReset, replicated applies — flows
// through this, so after a restart nextID never re-mints an id that a
// pre-crash insert already acknowledged (which would surface as a
// spurious ErrDuplicateID on a fresh insert).
func noteOID(id string) {
	if !strings.HasPrefix(id, "oid") {
		return
	}
	n, err := strconv.ParseUint(id[3:], 16, 64)
	if err != nil {
		return
	}
	for {
		cur := idCounter.Load()
		if n <= cur || idCounter.CompareAndSwap(cur, n) {
			return
		}
	}
}

// genCounter issues write generations. It is process-global (not
// per-collection) so a collection that is dropped and re-created can
// never repeat a generation that a cache entry was stored under.
var genCounter atomic.Uint64

// Collection is a named set of documents keyed by "_id". All methods are
// safe for concurrent use; writes take an exclusive lock, reads a shared
// lock, mirroring MongoDB's (v2-era) per-collection locking.
type Collection struct {
	name  string
	store *Store

	mu      sync.RWMutex
	docs    map[string]document.D
	order   []string       // insertion order of ids, for stable scans
	seq     map[string]int // id -> insertion sequence, for candidate sorting
	seqNext int
	ordered map[string]*orderedIndex // canonical name -> secondary index
	bytes   int

	// gen is the collection's write generation: it takes a fresh value
	// from genCounter after every mutation (insert, update, remove —
	// including journal replay and snapshot restore, which flow through
	// the same *Locked mutators). A read result captured at generation g
	// is valid iff Generation() still returns g.
	gen atomic.Uint64
}

func newCollection(name string, store *Store) *Collection {
	c := &Collection{
		name:    name,
		store:   store,
		docs:    make(map[string]document.D),
		seq:     make(map[string]int),
		ordered: make(map[string]*orderedIndex),
	}
	c.gen.Store(genCounter.Add(1))
	return c
}

// Generation reports the collection's current write generation. It
// changes after every acknowledged write: the bump happens inside the
// write lock, after the mutation is applied, so a reader that loads the
// generation *before* reading data can safely cache the result under it
// — any later write produces a different generation.
func (c *Collection) Generation() uint64 { return c.gen.Load() }

// bumpGenLocked advances the write generation. Callers hold c.mu
// exclusively, so per-collection generations are strictly increasing.
func (c *Collection) bumpGenLocked() { c.gen.Store(genCounter.Add(1)) }

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// CollStats summarizes a collection.
type CollStats struct {
	Documents int
	Bytes     int
	// Indexes lists the secondary indexes by canonical name, sorted. A
	// name is the index's component paths joined with ",", so
	// strings.Split(name, ",") recovers the paths.
	Indexes []string
}

// Stats reports size and index information.
func (c *Collection) Stats() CollStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	idx := make([]string, 0, len(c.ordered))
	for n := range c.ordered {
		idx = append(idx, n)
	}
	sort.Strings(idx)
	return CollStats{Documents: len(c.docs), Bytes: c.bytes, Indexes: idx}
}

// Insert stores a document. If it has no "_id", one is assigned; the
// (possibly new) id is returned. The stored document is NormalizeDoc's
// fresh tree: the caller's document is never aliased.
func (c *Collection) Insert(doc document.D) (string, error) {
	start := time.Now()
	d := document.NormalizeDoc(doc)
	id, hasID := d["_id"].(string)
	if !hasID {
		if raw, ok := d["_id"]; ok {
			return "", fmt.Errorf("datastore: _id must be a string, got %T", raw)
		}
		id = nextID()
		d["_id"] = id
	}
	c.mu.Lock()
	if c.storeClosed() {
		c.mu.Unlock()
		return "", ErrClosed
	}
	if _, exists := c.docs[id]; exists {
		c.mu.Unlock()
		return "", fmt.Errorf("%w: %q in %q", ErrDuplicateID, id, c.name)
	}
	c.insertLocked(id, d)
	p := c.stageLocked(journalInsert, id, d)
	c.mu.Unlock()
	if err := p.commit(); err != nil {
		return "", err
	}
	c.profile("insert", start, 0)
	return id, nil
}

// InsertMany inserts a batch under a single lock acquisition, returning
// the assigned ids. The batch is validated up front (id types, intra-
// batch and stored duplicates) and applied all-or-nothing; its journal
// records ride one group commit, so the whole batch costs one fsync.
func (c *Collection) InsertMany(docs []document.D) ([]string, error) {
	start := time.Now()
	if len(docs) == 0 {
		return nil, nil
	}
	prepared := make([]document.D, len(docs))
	ids := make([]string, len(docs))
	seen := make(map[string]struct{}, len(docs))
	for i, doc := range docs {
		d := document.NormalizeDoc(doc)
		id, hasID := d["_id"].(string)
		if !hasID {
			if raw, ok := d["_id"]; ok {
				return nil, fmt.Errorf("datastore: _id must be a string, got %T", raw)
			}
			id = nextID()
			d["_id"] = id
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("%w: %q repeated in batch", ErrDuplicateID, id)
		}
		seen[id] = struct{}{}
		prepared[i] = d
		ids[i] = id
	}
	var p pendingCommit
	c.mu.Lock()
	if c.storeClosed() {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	for _, id := range ids {
		if _, exists := c.docs[id]; exists {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: %q in %q", ErrDuplicateID, id, c.name)
		}
	}
	for i, d := range prepared {
		c.insertLocked(ids[i], d)
		p = c.stageLocked(journalInsert, ids[i], d)
	}
	c.mu.Unlock()
	if err := p.commit(); err != nil {
		return nil, err
	}
	c.profile("insertMany", start, len(ids))
	return ids, nil
}

// insertLocked assumes c.mu is held and id is fresh.
func (c *Collection) insertLocked(id string, d document.D) {
	noteOID(id)
	c.docs[id] = d
	c.order = append(c.order, id)
	c.seq[id] = c.seqNext
	c.seqNext++
	c.bytes += document.ApproxSize(d)
	for _, ox := range c.ordered {
		ox.add(id, d)
	}
	c.bumpGenLocked()
}

func (c *Collection) removeLocked(id string) {
	d, ok := c.docs[id]
	if !ok {
		return
	}
	delete(c.docs, id)
	delete(c.seq, id)
	c.bytes -= document.ApproxSize(d)
	for i, oid := range c.order {
		if oid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	for _, ox := range c.ordered {
		ox.remove(id, d)
	}
	c.bumpGenLocked()
}

// replaceLocked swaps the stored document for id, maintaining indexes.
func (c *Collection) replaceLocked(id string, newDoc document.D) {
	old := c.docs[id]
	for _, ox := range c.ordered {
		ox.remove(id, old)
		ox.add(id, newDoc)
	}
	c.bytes += document.ApproxSize(newDoc) - document.ApproxSize(old)
	c.docs[id] = newDoc
	c.bumpGenLocked()
}

// FindOpts controls a query: projection, sort order, skip and limit.
type FindOpts struct {
	Projection document.D
	Sort       []string // "field" or "-field"
	Skip       int      // a negative skip counts as 0
	Limit      int      // 0 means no limit
	// MaxStaleness, when > 0, permits a routed read to be served by a
	// replica whose applied replication generation lags the group head
	// by at most this many generations. 0 (the default) keeps the read
	// on the primary. Local (non-routed) reads ignore it — a single
	// store is never stale relative to itself.
	MaxStaleness int
	// Hint forces the query planner to use the named index (its
	// comma-joined component paths, as in Stats().Indexes); a hinted
	// index no constraint can narrow is walked in full. Routed reads
	// forward the hint to every shard, so the whole scatter runs the
	// same plan regardless of per-shard statistics. Unknown hints are
	// ignored.
	Hint string
}

// Find returns a cursor over documents matching filter. Without a
// projection the cursor holds the stored documents themselves, which are
// read-only (see find); iterating never observes later writes, because a
// write replaces a stored document instead of changing it.
func (c *Collection) Find(filter document.D, opts *FindOpts) (*Cursor, error) {
	rows, proj, err := c.find(filter, opts)
	if err != nil {
		return nil, err
	}
	if proj != nil {
		for i, d := range rows {
			rows[i] = proj.Apply(d)
		}
	}
	return &Cursor{docs: rows}, nil
}

// AppendFind appends to dst the JSON array (document.AppendJSON) of the
// documents Find would return, encoded straight from the stored
// documents, and reports how many there are: a node that only serializes
// a result never copies it.
func (c *Collection) AppendFind(dst []byte, filter document.D, opts *FindOpts) ([]byte, int, error) {
	dst, _, n, err := c.appendFind(dst, nil, filter, opts)
	return dst, n, err
}

// AppendFindKeys is AppendFind that also appends to keys the JSON array
// of each returned document's merge key: its query.SortValues under
// query.MergeKeys — the values a sorted read compares, in sort-spec
// order with null for a missing field, or [_id] without a sort — read
// from the stored document before any projection. A router merges shard replies on these keys, so a
// projection that drops a sort field leaves the merge order intact.
func (c *Collection) AppendFindKeys(dst, keys []byte, filter document.D, opts *FindOpts) ([]byte, []byte, int, error) {
	return c.appendFind(dst, append(keys, '['), filter, opts)
}

// appendFind is AppendFind, and AppendFindKeys when keys is non-nil (it
// then holds the keys array's opening bracket).
func (c *Collection) appendFind(dst, keys []byte, filter document.D, opts *FindOpts) ([]byte, []byte, int, error) {
	rows, proj, err := c.find(filter, opts)
	if err != nil {
		return dst, keys, 0, err
	}
	if keys != nil {
		var sortSpec []string
		if opts != nil {
			sortSpec = opts.Sort
		}
		sortKeys, _ := query.MergeKeys(sortSpec) // find parsed the spec already
		var vals []any
		for i, d := range rows {
			if i > 0 {
				keys = append(keys, ',')
			}
			vals = query.SortValues(vals[:0], d, sortKeys)
			if keys, err = document.AppendJSON(keys, vals); err != nil {
				return dst, keys, 0, err
			}
		}
		keys = append(keys, ']')
	}
	if proj != nil {
		for i, d := range rows {
			rows[i] = proj.Apply(d)
		}
	}
	if rows == nil {
		rows = []document.D{}
	}
	dst, err = document.AppendJSON(dst, rows)
	return dst, keys, len(rows), err
}

// AppendID appends the JSON encoding of the document with the given _id,
// encoded straight from the stored document, or returns ErrNotFound.
func (c *Collection) AppendID(dst []byte, id string) ([]byte, error) {
	c.mu.RLock()
	d, ok := c.docs[id]
	c.mu.RUnlock()
	if !ok {
		return dst, ErrNotFound
	}
	return document.AppendJSON(dst, d)
}

// find is the one query walk behind Find and AppendFind: it returns the
// page in order, after sort, skip and limit, as the stored documents
// themselves, and the projection the caller applies to each of them.
// Sorting, skipping and limiting the stored documents before projecting
// keeps a projection that drops a sort field from changing the order,
// and projects only the page. The rows stay valid after the lock is
// released, because a stored document is never mutated — every write
// replaces it (replaceLocked) with a new one built from a copy — and
// they are read-only for every caller, inside the package or not.
func (c *Collection) find(filter document.D, opts *FindOpts) (rows []document.D, proj *query.Projection, err error) {
	start := time.Now()
	flt, err := query.Compile(filter)
	if err != nil {
		return nil, nil, err
	}
	var sortKeys []query.SortKey
	skip, limit := 0, 0
	if opts != nil {
		proj, err = query.CompileProjection(opts.Projection)
		if err != nil {
			return nil, nil, err
		}
		sortKeys, err = query.ParseSort(opts.Sort)
		if err != nil {
			return nil, nil, err
		}
		// A negative skip counts as 0, whichever plan runs.
		skip, limit = max(opts.Skip, 0), opts.Limit
	}

	c.mu.RLock()
	var plan *queryPlan
	if ids, handled := c.idLookupLocked(flt); handled {
		plan = &queryPlan{mode: "id", estimate: len(ids), ndocs: len(c.docs)}
		c.notePlan(plan)
		rows = make([]document.D, 0, len(ids))
		for _, id := range ids {
			rows = append(rows, c.docs[id])
		}
		c.mu.RUnlock()
	} else {
		plan = c.planQueryLocked(flt, sortKeys, opts)
		c.notePlan(plan)
		if plan.sortSatisfied {
			// The chosen ordered index emits matches already in sort
			// order, so sort, skip and limit are all satisfied during
			// the index walk — nothing is materialized beyond the
			// returned page.
			want := -1
			if limit > 0 {
				want = skip + limit
			}
			matched := 0
			c.orderedEmitLocked(plan.access, plan.reverse, func(id string) bool {
				if !flt.Matches(c.docs[id]) {
					return true
				}
				matched++
				if matched <= skip {
					return true
				}
				rows = append(rows, c.docs[id])
				return want < 0 || matched < want
			})
			c.mu.RUnlock()
			c.profilePlan("find", start, len(rows), plan)
			return rows, proj, nil
		}
		// Limit pushdown without a sort: matches come back in insertion
		// order, so the first skip+limit of them are the page.
		maxMatches := 0
		if len(sortKeys) == 0 && limit > 0 {
			maxMatches = skip + limit
		}
		matched := c.execPlanLocked(flt, plan, maxMatches)
		rows = make([]document.D, 0, len(matched))
		for _, id := range matched {
			rows = append(rows, c.docs[id])
		}
		c.mu.RUnlock()
	}

	query.SortDocs(rows, sortKeys)
	if skip > 0 {
		if skip >= len(rows) {
			rows = nil
		} else {
			rows = rows[skip:]
		}
	}
	if limit > 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	c.profilePlan("find", start, len(rows), plan)
	return rows, proj, nil
}

// FindAll is Find followed by draining the cursor.
func (c *Collection) FindAll(filter document.D, opts *FindOpts) ([]document.D, error) {
	cur, err := c.Find(filter, opts)
	if err != nil {
		return nil, err
	}
	return cur.All(), nil
}

// FindOne returns the first matching document, or ErrNotFound.
func (c *Collection) FindOne(filter document.D, opts *FindOpts) (document.D, error) {
	o := FindOpts{Limit: 1}
	if opts != nil {
		o = *opts
		o.Limit = 1
	}
	docs, err := c.FindAll(filter, &o)
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, ErrNotFound
	}
	return docs[0], nil
}

// FindID fetches the stored document with the given _id, read-only.
func (c *Collection) FindID(id string) (document.D, error) {
	c.mu.RLock()
	d, ok := c.docs[id]
	c.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return d, nil
}

// Count returns the number of documents matching filter.
func (c *Collection) Count(filter document.D) (int, error) {
	start := time.Now()
	flt, err := query.Compile(filter)
	if err != nil {
		return 0, err
	}
	c.mu.RLock()
	n := len(c.scanLocked(flt))
	c.mu.RUnlock()
	c.profile("count", start, n)
	return n, nil
}

// Distinct returns the distinct values at a dotted path among matching
// documents. Array values contribute their elements. The result is sorted
// by document.Compare order. Deduplication keys a map on the index key
// encoding, so int64/float64 values that are numerically equal collapse
// (3 and 3.0 are one value), matching index-bucket semantics.
func (c *Collection) Distinct(path string, filter document.D) ([]any, error) {
	start := time.Now()
	flt, err := query.Compile(filter)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	seen := make(map[string]struct{}, 16)
	vals := make([]any, 0, 16)
	add := func(v any) {
		k := encodeKeyString(v)
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		vals = append(vals, v)
	}
	for _, id := range c.scanLocked(flt) {
		v, ok := c.docs[id].Get(path)
		if !ok {
			continue
		}
		if arr, isArr := v.([]any); isArr {
			for _, el := range arr {
				add(el)
			}
		} else {
			add(v)
		}
	}
	c.mu.RUnlock()
	sort.Slice(vals, func(i, j int) bool { return document.Compare(vals[i], vals[j]) < 0 })
	c.profile("distinct", start, len(vals))
	return vals, nil
}

// UpdateResult reports what an update did.
type UpdateResult struct {
	Matched  int
	Modified int
}

// UpdateOne applies an update to the first matching document.
func (c *Collection) UpdateOne(filter, update document.D) (UpdateResult, error) {
	return c.update(filter, update, false)
}

// UpdateMany applies an update to every matching document.
func (c *Collection) UpdateMany(filter, update document.D) (UpdateResult, error) {
	return c.update(filter, update, true)
}

func (c *Collection) update(filter, update document.D, many bool) (UpdateResult, error) {
	start := time.Now()
	flt, err := query.Compile(filter)
	if err != nil {
		return UpdateResult{}, err
	}
	upd, err := query.CompileUpdate(update)
	if err != nil {
		return UpdateResult{}, err
	}
	var res UpdateResult
	var p pendingCommit
	var opErr error
	c.mu.Lock()
	if c.storeClosed() {
		c.mu.Unlock()
		return UpdateResult{}, ErrClosed
	}
	for _, id := range c.scanLocked(flt) {
		res.Matched++
		cur := c.docs[id]
		next, err := upd.Apply(cur.Copy())
		if err != nil {
			opErr = err
			break
		}
		if nid, ok := next["_id"].(string); !ok || nid != id {
			opErr = fmt.Errorf("datastore: update may not change _id (collection %q)", c.name)
			break
		}
		if !document.Equal(cur, next) {
			c.replaceLocked(id, next)
			res.Modified++
			p = c.stageLocked(journalUpdate, id, next)
		}
		if !many {
			break
		}
	}
	c.mu.Unlock()
	// Commit even on a mid-batch error: earlier documents were already
	// modified in memory, so their records must still become durable.
	if err := p.commit(); err != nil && opErr == nil {
		opErr = err
	}
	if opErr != nil {
		return res, opErr
	}
	c.profile("update", start, res.Modified)
	return res, nil
}

// Upsert behaves like UpdateOne, but inserts a new document when nothing
// matches: equality fields of the filter seed the new document, then the
// update applies. Returns the id of the updated or inserted document.
func (c *Collection) Upsert(filter, update document.D) (string, error) {
	flt, err := query.Compile(filter)
	if err != nil {
		return "", err
	}
	upd, err := query.CompileUpdate(update)
	if err != nil {
		return "", err
	}
	start := time.Now()
	c.mu.Lock()
	if c.storeClosed() {
		c.mu.Unlock()
		return "", ErrClosed
	}
	ids := c.scanLocked(flt)
	if len(ids) > 0 {
		id := ids[0]
		next, err := upd.Apply(c.docs[id].Copy())
		if err != nil {
			c.mu.Unlock()
			return "", err
		}
		if nid, ok := next["_id"].(string); !ok || nid != id {
			c.mu.Unlock()
			return "", fmt.Errorf("datastore: upsert may not change _id")
		}
		c.replaceLocked(id, next)
		p := c.stageLocked(journalUpdate, id, next)
		c.mu.Unlock()
		if err := p.commit(); err != nil {
			return "", err
		}
		c.profile("update", start, 1)
		return id, nil
	}
	seed := document.New()
	for path, v := range flt.EqualityFields() {
		if err := seed.Set(path, v); err != nil {
			c.mu.Unlock()
			return "", err
		}
	}
	next, err := upd.Apply(seed)
	if err != nil {
		c.mu.Unlock()
		return "", err
	}
	id, hasID := next["_id"].(string)
	if !hasID {
		id = nextID()
		next["_id"] = id
	}
	if _, exists := c.docs[id]; exists {
		c.mu.Unlock()
		return "", fmt.Errorf("%w: %q in %q", ErrDuplicateID, id, c.name)
	}
	c.insertLocked(id, next)
	p := c.stageLocked(journalInsert, id, next)
	c.mu.Unlock()
	if err := p.commit(); err != nil {
		return "", err
	}
	c.profile("insert", start, 1)
	return id, nil
}

// FindAndModify atomically finds the first document matching filter (in
// the given sort order), applies the update, and returns the document.
// If returnNew is true the post-update document is returned, otherwise the
// pre-update one. This is the task-queue claim primitive: concurrent
// workers calling FindAndModify on {state: "ready"} each receive a
// distinct job.
func (c *Collection) FindAndModify(filter, update document.D, sortSpec []string, returnNew bool) (document.D, error) {
	start := time.Now()
	flt, err := query.Compile(filter)
	if err != nil {
		return nil, err
	}
	upd, err := query.CompileUpdate(update)
	if err != nil {
		return nil, err
	}
	sortKeys, err := query.ParseSort(sortSpec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.storeClosed() {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	ids := c.scanLocked(flt)
	if len(ids) == 0 {
		c.mu.Unlock()
		return nil, ErrNotFound
	}
	best := ids[0]
	if len(sortKeys) > 0 {
		for _, id := range ids[1:] {
			if query.CompareByKeys(c.docs[id], c.docs[best], sortKeys) < 0 {
				best = id
			}
		}
	}
	before := c.docs[best].Copy()
	next, err := upd.Apply(c.docs[best].Copy())
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if nid, ok := next["_id"].(string); !ok || nid != best {
		c.mu.Unlock()
		return nil, fmt.Errorf("datastore: findAndModify may not change _id")
	}
	c.replaceLocked(best, next)
	p := c.stageLocked(journalUpdate, best, next)
	out := before
	if returnNew {
		out = next.Copy()
	}
	c.mu.Unlock()
	if err := p.commit(); err != nil {
		return nil, err
	}
	c.profile("findAndModify", start, 1)
	return out, nil
}

// Remove deletes matching documents and reports how many were removed.
func (c *Collection) Remove(filter document.D) (int, error) {
	start := time.Now()
	flt, err := query.Compile(filter)
	if err != nil {
		return 0, err
	}
	var p pendingCommit
	c.mu.Lock()
	if c.storeClosed() {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	ids := c.scanLocked(flt)
	for _, id := range ids {
		c.removeLocked(id)
		p = c.stageLocked(journalRemove, id, nil)
	}
	c.mu.Unlock()
	if err := p.commit(); err != nil {
		return len(ids), err
	}
	c.profile("remove", start, len(ids))
	return len(ids), nil
}

// RemoveID deletes one document by id.
func (c *Collection) RemoveID(id string) error {
	c.mu.Lock()
	if c.storeClosed() {
		c.mu.Unlock()
		return ErrClosed
	}
	_, ok := c.docs[id]
	if !ok {
		c.mu.Unlock()
		return ErrNotFound
	}
	c.removeLocked(id)
	p := c.stageLocked(journalRemove, id, nil)
	c.mu.Unlock()
	return p.commit()
}

// profile records an operation in the store profiler and, when the store
// is observed, in the live metrics registry and slow-op tracer.
func (c *Collection) profile(op string, start time.Time, returned int) {
	c.profileDetail(op, start, returned, "")
}

// profilePlan is profile plus the chosen query plan in the slow-op trace
// detail, so a slow query's trace line shows how it was executed.
func (c *Collection) profilePlan(op string, start time.Time, returned int, plan *queryPlan) {
	summary := ""
	if plan != nil {
		summary = plan.planSummary()
	}
	c.profileDetail(op, start, returned, summary)
}

func (c *Collection) profileDetail(op string, start time.Time, returned int, planStr string) {
	if c.store == nil {
		return
	}
	dur := time.Since(start)
	if c.store.profiler != nil {
		c.store.profiler.Record(ProfileEntry{
			Collection: c.name,
			Op:         op,
			Duration:   dur,
			Returned:   returned,
			At:         start,
		})
	}
	reg, tr := c.store.metrics()
	if reg != nil {
		reg.Counter("datastore." + c.name + "." + op).Inc()
		reg.LatencyHistogram("datastore." + op + "_ms").ObserveDuration(dur)
		if returned > 0 {
			reg.Counter("datastore.docs_returned").Add(uint64(returned))
		}
	}
	tr.ObserveFunc("datastore."+op, dur, func() string {
		if planStr != "" {
			return fmt.Sprintf("collection=%s returned=%d plan=%s", c.name, returned, planStr)
		}
		return fmt.Sprintf("collection=%s returned=%d", c.name, returned)
	})
}

// pendingCommit is a staged journal record awaiting its group commit.
// The zero value (memory store, or nothing staged) commits as a no-op.
type pendingCommit struct {
	j *journal
	t *commitTicket
}

// commit waits for the fsync covering the staged record. Called after
// the collection lock is released.
func (p pendingCommit) commit() error {
	if p.j == nil || p.t == nil {
		return nil
	}
	return p.j.commit(p.t)
}

// stageLocked mints and enqueues the journal record for one applied
// mutation. It MUST be called while holding c.mu exclusively, in the
// same critical section that applied the mutation: that is what makes
// journal (and replication-ring) order provably equal to apply order —
// two racing writers cannot apply A→B in memory but journal B→A, so
// crash replay can never resurrect a lost update. The returned
// pendingCommit is committed after c.mu is released; callers batching
// several records need only commit the last one (batches drain FIFO, so
// its fsync covers all earlier records, and the journal's sticky error
// fails every later record once an earlier one fails).
func (c *Collection) stageLocked(op journalOp, id string, doc document.D) pendingCommit {
	if c.store == nil {
		return pendingCommit{}
	}
	if j := c.store.journal.Load(); j != nil {
		return pendingCommit{j: j, t: j.stageWrite(c.name, op, id, doc)}
	}
	// Memory store: feed the in-memory replication ring instead (no-op
	// unless EnableReplication was called). record mints the generation
	// under its own leaf mutex while we hold c.mu, so ring order matches
	// apply order too.
	c.store.repl.record(c.name, op, id, doc)
	return pendingCommit{}
}

// storeClosed reports whether the owning store has been closed. Mutators
// check it under c.mu before applying anything: Store.Close takes every
// collection lock after setting the flag, so a mutator that saw the
// store open stages its journal record before the journal is detached.
func (c *Collection) storeClosed() bool {
	return c.store != nil && c.store.closed.Load()
}
