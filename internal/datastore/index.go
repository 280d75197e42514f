package datastore

import (
	"sort"

	"matproj/internal/document"
	"matproj/internal/query"
)

// scanLocked evaluates a compiled filter and returns matching ids in
// insertion order. The caller must hold at least a read lock.
//
// Planning: _id equality resolves directly; otherwise planQueryLocked
// estimates a cardinality for every usable index — full-key buckets,
// key ranges — and the cheapest access path's candidates are verified
// against the full filter. With no usable index the whole collection is
// scanned.
func (c *Collection) scanLocked(flt *query.Filter) []string {
	if ids, handled := c.idLookupLocked(flt); handled {
		c.notePlan(&queryPlan{mode: "id", estimate: len(ids), ndocs: len(c.docs)})
		return ids
	}
	plan := c.planQueryLocked(flt, nil, nil)
	c.notePlan(plan)
	return c.execPlanLocked(flt, plan, 0)
}

// idLookupLocked resolves an _id-pinned filter directly against the
// primary key map. The second return reports whether the filter was
// handled (an _id equality on a string value, present or not).
func (c *Collection) idLookupLocked(flt *query.Filter) ([]string, bool) {
	if flt == nil {
		return nil, false
	}
	idv, ok := flt.EqualityFields()["_id"]
	if !ok {
		return nil, false
	}
	id, isStr := idv.(string)
	if !isStr {
		return nil, false
	}
	if d, exists := c.docs[id]; exists && flt.Matches(d) {
		return []string{id}, true
	}
	return nil, true
}

// execPlanLocked runs a chosen plan, returning matching ids in insertion
// order. maxMatches > 0 stops after that many matches — valid whenever
// the caller wants an insertion-order prefix (no-sort limit pushdown).
func (c *Collection) execPlanLocked(flt *query.Filter, plan *queryPlan, maxMatches int) []string {
	var out []string
	if plan.mode != "index" || plan.access == nil {
		for _, id := range c.order {
			if flt.Matches(c.docs[id]) {
				out = append(out, id)
				if maxMatches > 0 && len(out) >= maxMatches {
					break
				}
			}
		}
		return out
	}
	candidates := c.candidateIDsLocked(plan.access)
	// Verify only the candidates, restoring insertion order via the
	// per-id sequence numbers (cheaper than walking the whole order
	// slice when the index is selective).
	ids := make([]string, 0, len(candidates))
	for id := range candidates {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return c.seq[ids[i]] < c.seq[ids[j]] })
	for _, id := range ids {
		if flt.Matches(c.docs[id]) {
			out = append(out, id)
			if maxMatches > 0 && len(out) >= maxMatches {
				break
			}
		}
	}
	return out
}

// Cursor iterates a result snapshot. Cursors are not safe for concurrent
// use; each goroutine should obtain its own.
type Cursor struct {
	docs []document.D
	pos  int
}

// Next returns the next document, or nil when exhausted.
func (cur *Cursor) Next() document.D {
	if cur.pos >= len(cur.docs) {
		return nil
	}
	d := cur.docs[cur.pos]
	cur.pos++
	return d
}

// All drains the cursor from the current position.
func (cur *Cursor) All() []document.D {
	out := cur.docs[cur.pos:]
	cur.pos = len(cur.docs)
	return out
}

// Len reports the total number of documents in the cursor's snapshot.
func (cur *Cursor) Len() int { return len(cur.docs) }

// Rewind resets the cursor to the beginning of its snapshot.
func (cur *Cursor) Rewind() { cur.pos = 0 }
