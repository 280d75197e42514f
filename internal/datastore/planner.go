package datastore

// Cost-based query planning. planQueryLocked inspects a compiled
// filter's conjunct-sound constraints (equality, $in, ranges, $all
// containment — only constraints hoisted from the top level or $and
// branches, so using them can over-select but never under-select),
// estimates a candidate cardinality for every usable ordered index,
// and picks the cheapest access path, falling back to a full scan. Every
// execution path re-verifies candidates against the complete filter,
// so the planner only has to be a superset oracle; correctness is
// enforced by the property-based scan-vs-index oracle test.
//
// Cost model (deterministic, pinned by the golden Explain tests):
//
//	scan        len(docs)
//	full key    len(bucket)                        (exact)
//	prefix      keysInRange × ceil(nids/entries)
//	range       keysInRange × ceil(nids/entries)
//	$in         Σ per-member region estimates
//	$all        min over members of the member's region estimate
//
// A full key pins every component (equality on each, or a final $in or
// $all member): it is one map probe that reads the bucket in place, with
// no sorted key list. keysInRange costs two binary searches — the
// planner never walks a candidate range to price it. The cheapest
// estimate wins; ties prefer a sort-satisfying plan, then
// lexicographically smaller index names, then index over scan only
// when the estimate is strictly smaller (or the index satisfies the
// sort for free).

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"matproj/internal/document"
	"matproj/internal/query"
)

// planAccess describes how a chosen index is read: either one key
// region [lo, hi) (extended by hiPrefix) or one point region per $in
// member (inKeys).
type planAccess struct {
	ord      *orderedIndex
	lo, hi   string
	hiPrefix string   // inclusive upper bound region (encoded prefix)
	inKeys   []string // sorted encoded prefixes, one region per $in member
	// point marks full-key regions: lo (or every inKeys member) is a
	// complete index key, so its candidates are exactly that bucket —
	// probed directly, without the sorted key list.
	point bool

	estimate int
	bounds   string   // human-readable bound description for Explain
	used     []string // constraint paths the access path consumes
	sortable bool     // emission order == index component order
}

// queryPlan is the planner's decision for one query.
type queryPlan struct {
	mode          string // "scan" or "index"
	access        *planAccess
	sortSatisfied bool // index emission order satisfies the requested sort
	reverse       bool // emit index order backwards (all-descending sort)
	estimate      int  // candidate cardinality estimate for the chosen path
	ndocs         int
	hinted        bool
	considered    []consideredAccess
	// constraintPaths lists every index-usable constrained path in the
	// filter (for residual reporting in Explain).
	constraintPaths []string
}

// consideredAccess is one (index, estimate) pair the planner evaluated.
type consideredAccess struct {
	index    string
	estimate int
}

// planQueryLocked chooses an access path. Caller holds c.mu (read or
// write). sortKeys and opts may be nil/empty; opts.Hint forces the
// named index when it is usable at all.
func (c *Collection) planQueryLocked(flt *query.Filter, sortKeys []query.SortKey, opts *FindOpts) *queryPlan {
	plan := &queryPlan{mode: "scan", ndocs: len(c.docs), estimate: len(c.docs)}
	if flt == nil && len(sortKeys) == 0 {
		return plan
	}

	var cons constraintSet
	if flt != nil {
		cons = constraintSet{
			eq:       flt.EqualityFields(),
			ins:      flt.InFields(),
			ranges:   flt.RangeFields(),
			contains: flt.ContainsFields(),
		}
	}
	cpSeen := make(map[string]struct{})
	notePath := func(p string) {
		if _, dup := cpSeen[p]; dup {
			return
		}
		cpSeen[p] = struct{}{}
		plan.constraintPaths = append(plan.constraintPaths, p)
	}
	for p := range cons.eq {
		notePath(p)
	}
	for _, ic := range cons.ins {
		notePath(ic.Path)
	}
	for _, rc := range cons.ranges {
		notePath(rc.Path)
	}
	for _, fc := range cons.contains {
		notePath(fc.Path)
	}
	sort.Strings(plan.constraintPaths)

	// Sort satisfaction precondition that is independent of the index:
	// find sorts the stored documents and projects only the page, so a
	// projection never stops an index walk from satisfying the sort.
	sortEligible := len(sortKeys) > 0
	uniformAsc, uniformDesc := true, true
	sortPaths := make([]string, len(sortKeys))
	for i, k := range sortKeys {
		sortPaths[i] = k.Path
		if k.Desc {
			uniformAsc = false
		} else {
			uniformDesc = false
		}
	}
	sortEligible = sortEligible && (uniformAsc || uniformDesc)
	sorts := func(ox *orderedIndex) bool {
		return sortEligible && pathsEqual(sortPaths, ox.paths) && !ox.multikey
	}
	// fullIndexScan walks every key: each starts with a component tag
	// below keyTagEnd, so string(keyTagEnd) bounds them all.
	fullIndexScan := func(ox *orderedIndex) *planAccess {
		return &planAccess{
			ord: ox, hi: string(byte(keyTagEnd)), estimate: ox.nids,
			bounds:   "full index scan",
			sortable: sorts(ox),
		}
	}

	// Every index: equality prefix, then one $all, $in or range
	// component. An index with no usable constraint can still satisfy
	// the sort with a full in-order walk (estimate: every document).
	names := make([]string, 0, len(c.ordered))
	for n := range c.ordered {
		names = append(names, n)
	}
	sort.Strings(names)
	var candidates []*planAccess
	for _, name := range names {
		ox := c.ordered[name]
		if acc := planOrdered(ox, &cons); acc != nil {
			acc.sortable = sorts(ox)
			candidates = append(candidates, acc)
		} else if sorts(ox) {
			candidates = append(candidates, fullIndexScan(ox))
		}
	}

	// Record everything considered (names are unique and sorted, so
	// Explain is stable).
	for _, acc := range candidates {
		plan.considered = append(plan.considered, consideredAccess{index: acc.ord.name, estimate: acc.estimate})
	}

	// Hint: force the named index when it produced a candidate. An
	// index hint with no constraint-derived access still forces a full
	// index scan — same plan on every shard regardless of per-shard
	// statistics.
	if opts != nil && opts.Hint != "" {
		for _, acc := range candidates {
			if acc.ord.name == opts.Hint {
				c.adoptAccess(plan, acc, sortEligible, uniformDesc)
				plan.hinted = true
				return plan
			}
		}
		if ox, ok := c.ordered[opts.Hint]; ok {
			c.adoptAccess(plan, fullIndexScan(ox), sortEligible, uniformDesc)
			plan.hinted = true
			return plan
		}
	}

	var best *planAccess
	for _, acc := range candidates {
		if best == nil || betterAccess(acc, best) {
			best = acc
		}
	}
	if best == nil {
		return plan
	}
	// A full scan wins unless the index is strictly cheaper or throws in
	// the sort for free.
	if best.estimate >= plan.ndocs && !best.sortable {
		return plan
	}
	c.adoptAccess(plan, best, sortEligible, uniformDesc)
	return plan
}

// constraintSet holds a filter's index-usable constraints.
type constraintSet struct {
	eq       map[string]any
	ins      []query.InConstraint
	ranges   []query.RangeConstraint
	contains []struct {
		Path  string
		Value any
	}
}

func (cs *constraintSet) rangeFor(path string) (query.RangeConstraint, bool) {
	for _, rc := range cs.ranges {
		if rc.Path == path {
			return rc, true
		}
	}
	return query.RangeConstraint{}, false
}

func (cs *constraintSet) inFor(path string) (query.InConstraint, bool) {
	for _, ic := range cs.ins {
		if ic.Path == path {
			return ic, true
		}
	}
	return query.InConstraint{}, false
}

// allFor lists the $all members required at path.
func (cs *constraintSet) allFor(path string) []any {
	var out []any
	for _, fc := range cs.contains {
		if fc.Path == path {
			out = append(out, fc.Value)
		}
	}
	return out
}

// adoptAccess installs an access path into the plan.
func (c *Collection) adoptAccess(plan *queryPlan, acc *planAccess, sortEligible, desc bool) {
	plan.mode = "index"
	plan.access = acc
	plan.estimate = acc.estimate
	if acc.sortable && sortEligible {
		plan.sortSatisfied = true
		plan.reverse = desc
	}
}

// betterAccess orders candidate access paths: smaller estimate first,
// then sort-satisfying, then stable by index name.
func betterAccess(a, b *planAccess) bool {
	if a.estimate != b.estimate {
		return a.estimate < b.estimate
	}
	if a.sortable != b.sortable {
		return a.sortable
	}
	return a.ord.name < b.ord.name
}

// planOrdered matches an ordered index against the constraint set:
// consume equality constraints along the component prefix, then
// optionally one $all, $in or range constraint on the next component,
// and translate them into encoded key bounds. Returns nil when no
// leading component is constrained. Caller holds c.mu.
func planOrdered(ox *orderedIndex, cons *constraintSet) *planAccess {
	var prefix []byte
	var used []string
	var boundParts []string
	eqCols := 0
	for _, p := range ox.paths {
		v, ok := cons.eq[p]
		if !ok {
			break
		}
		prefix = encodeKey(prefix, v)
		used = append(used, p)
		boundParts = append(boundParts, fmt.Sprintf("%s = %v", p, v))
		eqCols++
	}

	// Full-tuple equality: a single bucket probe.
	if eqCols == len(ox.paths) {
		key := string(prefix)
		return &planAccess{
			ord: ox, lo: key, hi: key, hiPrefix: key, point: true,
			estimate: len(ox.probe(key)),
			bounds:   strings.Join(boundParts, ", "),
			used:     used,
		}
	}

	next := ox.paths[eqCols]
	// Regions on the next component are full keys when it is the last.
	point := eqCols+1 == len(ox.paths)
	avg := 1
	if len(ox.entries) > 0 {
		avg = (ox.nids + len(ox.entries) - 1) / len(ox.entries)
	}
	regionEstimate := func(lo, hi, hiPrefix string) int {
		keys := ox.sortedKeys()
		start, end := ox.keyRange(keys, lo, hi, hiPrefix)
		if end-start == 1 {
			// A single key: its bucket size is the exact count.
			return len(ox.entries[keys[start]].ids)
		}
		return (end - start) * avg
	}
	memberKey := func(v any) string {
		return string(encodeKey(append([]byte{}, prefix...), v))
	}
	memberEstimate := func(key string) int {
		if point {
			return len(ox.probe(key))
		}
		return regionEstimate(key, key, key)
	}

	// $all on the next component: every member must be present, so any
	// one member's point region is a superset of the matches (a
	// multikey index stores each array element under its own key).
	// Read the smallest.
	if members := cons.allFor(next); len(members) > 0 {
		var best *planAccess
		for _, v := range members {
			key := memberKey(v)
			est := memberEstimate(key)
			if best == nil || est < best.estimate {
				best = &planAccess{
					ord: ox, lo: key, hi: key, hiPrefix: key, point: point,
					estimate: est,
					bounds:   appendBound(boundParts, fmt.Sprintf("%s contains %v", next, v)),
					used:     append(used, next),
				}
			}
		}
		return best
	}

	// $in on the next component: one point region per member. Regions
	// are sorted and deduplicated, so concatenating them preserves
	// index order.
	if ic, ok := cons.inFor(next); ok {
		regions := make([]string, 0, len(ic.Values))
		for _, v := range ic.Values {
			regions = append(regions, memberKey(v))
		}
		regions = dedupeSortedStrings(regions)
		est := 0
		for _, r := range regions {
			est += memberEstimate(r)
		}
		return &planAccess{
			ord: ox, inKeys: regions, point: point,
			estimate: est,
			bounds:   appendBound(boundParts, fmt.Sprintf("%s in (%d values)", next, len(ic.Values))),
			used:     append(used, next),
		}
	}

	// Range on the next component. The bounds are clamped to the bound
	// value's type class, mirroring cmpPred's same-class rule; document
	// and fallback-class bounds are skipped because Compare's "other"
	// rank is not contiguous with the document rank.
	if rc, ok := cons.rangeFor(next); ok {
		classOK := func(v any) bool {
			switch keyTagOf(v) {
			case keyTagNull, keyTagNumber, keyTagString, keyTagBool, keyTagArray:
				return true
			}
			return false
		}
		// On a multikey index a two-sided range is unsound as one
		// contiguous region: cmpPred is per-element, so one array element
		// may satisfy the min bound while a different element satisfies
		// the max. Degrade to the min bound alone — still a superset
		// (the matching element's key lies past lo), and the residual
		// filter re-verifies every candidate.
		rc := rc
		if ox.multikey && rc.HasMin && rc.HasMax {
			rc.HasMax = false
			rc.MaxOpen = false
			rc.Max = nil
		}
		usable := (!rc.HasMin || classOK(rc.Min)) && (!rc.HasMax || classOK(rc.Max))
		if usable && (rc.HasMin || rc.HasMax) {
			classOf := func(v any) byte { return keyTagOf(v) }
			var class byte
			if rc.HasMin {
				class = classOf(rc.Min)
			} else {
				class = classOf(rc.Max)
			}
			lo := string(prefix) + string(class)
			if rc.HasMin {
				lo = string(encodeKey(append([]byte{}, prefix...), rc.Min))
				if rc.MinOpen {
					// Bump past every key whose component equals Min.
					lo += string(byte(keyTagEnd))
				}
			}
			hi := string(prefix) + string(class+1)
			hiPrefix := ""
			if rc.HasMax {
				hi = string(encodeKey(append([]byte{}, prefix...), rc.Max))
				if !rc.MaxOpen {
					hiPrefix = hi
				}
			}
			return &planAccess{
				ord: ox,
				lo:  lo, hi: hi, hiPrefix: hiPrefix,
				estimate: regionEstimate(lo, hi, hiPrefix),
				bounds:   appendBound(boundParts, rangeBoundString(next, rc)),
				used:     append(used, next),
			}
		}
	}

	// Equality-only prefix (shorter than the tuple): a prefix region.
	if eqCols > 0 {
		key := string(prefix)
		return &planAccess{
			ord: ox,
			lo:  key, hi: key, hiPrefix: key,
			estimate: regionEstimate(key, key, key),
			bounds:   strings.Join(boundParts, ", "),
			used:     used,
		}
	}
	return nil
}

func appendBound(parts []string, last string) string {
	if len(parts) == 0 {
		return last
	}
	return strings.Join(parts, ", ") + ", " + last
}

func rangeBoundString(path string, rc query.RangeConstraint) string {
	lo, hi := "-inf", "+inf"
	lob, hib := "[", "]"
	if rc.HasMin {
		lo = fmt.Sprintf("%v", rc.Min)
		if rc.MinOpen {
			lob = "("
		}
	} else {
		lob = "("
	}
	if rc.HasMax {
		hi = fmt.Sprintf("%v", rc.Max)
		if rc.MaxOpen {
			hib = ")"
		}
	} else {
		hib = ")"
	}
	return fmt.Sprintf("%s %s%s, %s%s", path, lob, lo, hi, hib)
}

func pathsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// regionKeys lists the index keys an access path covers, in index
// order. Full-key regions come back as-is, without touching the sorted
// key list (an absent key simply has no bucket); every other region is
// a slice of the sorted keys. Caller holds c.mu.
func (acc *planAccess) regionKeys() []string {
	if acc.point {
		if acc.inKeys != nil {
			return acc.inKeys
		}
		return []string{acc.lo}
	}
	keys := acc.ord.sortedKeys()
	if acc.inKeys == nil {
		s, e := acc.ord.keyRange(keys, acc.lo, acc.hi, acc.hiPrefix)
		return keys[s:e]
	}
	var out []string
	for _, r := range acc.inKeys {
		s, e := acc.ord.keyRange(keys, r, r, r)
		out = append(out, keys[s:e]...)
	}
	return out
}

// candidateIDsLocked materializes the (unverified, deduplicated)
// candidate id set for an index access path. Caller holds c.mu and must
// not mutate the result: a single full key returns its bucket in place.
func (c *Collection) candidateIDsLocked(acc *planAccess) map[string]struct{} {
	if acc.point && acc.inKeys == nil {
		return acc.ord.probe(acc.lo)
	}
	out := make(map[string]struct{})
	for _, k := range acc.regionKeys() {
		for id := range acc.ord.probe(k) {
			out[id] = struct{}{}
		}
	}
	return out
}

// orderedEmitLocked walks the chosen index region in index order
// (reversed when reverse is set), emitting matching document ids:
// within a bucket, ids come out in insertion-sequence order, which
// matches SortDocs' stable tie-breaking. Emission stops early once the
// caller has seen skip+limit matches (fn returns false). Only valid for
// non-multikey plans (each document appears under exactly one key).
func (c *Collection) orderedEmitLocked(acc *planAccess, reverse bool, fn func(id string) bool) {
	keys := acc.regionKeys()
	bySeq := func(a, b string) int { return cmp.Compare(c.seq[a], c.seq[b]) }
	var ids []string // reused across buckets
	emitBucket := func(k string) bool {
		b := acc.ord.probe(k)
		if len(b) == 1 {
			for id := range b {
				return fn(id)
			}
		}
		ids = ids[:0]
		for id := range b {
			ids = append(ids, id)
		}
		slices.SortFunc(ids, bySeq)
		for _, id := range ids {
			if !fn(id) {
				return false
			}
		}
		return true
	}
	if reverse {
		for i := len(keys) - 1; i >= 0; i-- {
			if !emitBucket(keys[i]) {
				return
			}
		}
		return
	}
	for _, k := range keys {
		if !emitBucket(k) {
			return
		}
	}
}

// explainDocLocked renders a plan as a wire-safe document (the payload
// behind $explain). Caller holds c.mu.
func (c *Collection) explainDocLocked(plan *queryPlan) document.D {
	d := document.D{
		"collection":           c.name,
		"mode":                 plan.mode,
		"ndocs":                int64(plan.ndocs),
		"estimated_candidates": int64(plan.estimate),
		"sort_satisfied":       plan.sortSatisfied,
		"reverse":              plan.reverse,
		"hinted":               plan.hinted,
	}
	if plan.access != nil {
		d["index"] = plan.access.ord.name
		d["index_kind"] = "ordered"
		d["bounds"] = plan.access.bounds
		residual := residualPaths(plan)
		rp := make([]any, len(residual))
		for i, p := range residual {
			rp[i] = p
		}
		d["residual_paths"] = rp
	}
	considered := make([]any, 0, len(plan.considered))
	for _, ca := range plan.considered {
		considered = append(considered, document.D{
			"index":    ca.index,
			"kind":     "ordered",
			"estimate": int64(ca.estimate),
		})
	}
	d["considered"] = considered
	return d
}

// residualPaths lists constrained paths the chosen access path does not
// consume — the fields the post-access verification filter still has to
// check. (Every path is re-verified regardless; this reports which
// constraints the index itself did not narrow.)
func residualPaths(plan *queryPlan) []string {
	if plan.access == nil {
		return nil
	}
	usedSet := make(map[string]struct{}, len(plan.access.used))
	for _, p := range plan.access.used {
		usedSet[p] = struct{}{}
	}
	seen := make(map[string]struct{})
	var out []string
	add := func(p string) {
		if _, u := usedSet[p]; u {
			return
		}
		if _, dup := seen[p]; dup {
			return
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	for _, p := range plan.constraintPaths {
		add(p)
	}
	sort.Strings(out)
	return out
}

// planSummary is the compact plan rendering that lands in the slow-query
// trace detail.
func (plan *queryPlan) planSummary() string {
	switch plan.mode {
	case "scan":
		return "scan"
	case "id":
		return "id"
	}
	s := "index:" + plan.access.ord.name
	if plan.sortSatisfied {
		s += "+sort"
	}
	return s
}

// notePlan bumps the planner decision counters. Safe to call while
// holding c.mu: the registry pointers are read atomically and counters
// are lock-free.
func (c *Collection) notePlan(plan *queryPlan) {
	if c.store == nil {
		return
	}
	reg, _ := c.store.metrics()
	if reg == nil {
		return
	}
	switch plan.mode {
	case "index":
		reg.Counter("datastore.planner.index_scans").Inc()
	case "id":
		reg.Counter("datastore.planner.id_lookups").Inc()
	default:
		reg.Counter("datastore.planner.full_scans").Inc()
	}
	if plan.sortSatisfied {
		reg.Counter("datastore.planner.sort_satisfied").Inc()
	}
	reg.Counter("datastore.planner.estimated_candidates").Add(uint64(plan.estimate))
}

// Explain compiles the query exactly as Find would and returns the
// planner's decision — chosen index, key bounds, residual filter paths,
// sort satisfaction, and every candidate considered — without executing
// anything.
func (c *Collection) Explain(filter document.D, opts *FindOpts) (document.D, error) {
	flt, err := query.Compile(filter)
	if err != nil {
		return nil, err
	}
	var sortKeys []query.SortKey
	if opts != nil {
		if _, err := query.CompileProjection(opts.Projection); err != nil {
			return nil, err
		}
		sortKeys, err = query.ParseSort(opts.Sort)
		if err != nil {
			return nil, err
		}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.store != nil {
		if reg, _ := c.store.metrics(); reg != nil {
			reg.Counter("datastore.planner.explains").Inc()
		}
	}
	if _, handled := c.idLookupLocked(flt); handled {
		return document.D{
			"collection":           c.name,
			"mode":                 "id",
			"ndocs":                int64(len(c.docs)),
			"estimated_candidates": int64(1),
			"sort_satisfied":       false,
			"reverse":              false,
			"hinted":               false,
			"considered":           []any{},
		}, nil
	}
	plan := c.planQueryLocked(flt, sortKeys, opts)
	return c.explainDocLocked(plan), nil
}
