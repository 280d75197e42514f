// Routed batched writes: InsertMany and BulkWrite split a client batch
// into per-shard sub-batches, ship each sub-batch over the wire in one
// call (the node applies it under a single collection lock, so it rides
// one group-commit fsync), and merge the per-document results back into
// the caller's input order.
package cluster

import (
	"fmt"
	"sync"

	"matproj/internal/cluster/wire"
	"matproj/internal/datastore"
	"matproj/internal/document"
)

// InsertMany routes a batch of documents to their shard groups as one
// sub-batch per group, written on each group's primary like Insert.
// Returned ids are in input order. On a group failure the successfully
// routed positions keep their ids and the first group error is returned;
// like datastore.InsertMany, each sub-batch itself is all-or-nothing on
// a node, and a batch holding a non-string _id is rejected before any
// group is written.
func (r *Router) InsertMany(collection string, docs []document.D) ([]string, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	ids := make([]string, len(docs))
	groupDocs := make([][]document.D, len(r.groups))
	groupIdx := make([][]int, len(r.groups))
	for i, doc := range docs {
		d, gi, err := r.place(doc)
		if err != nil {
			return nil, err
		}
		groupDocs[gi] = append(groupDocs[gi], d)
		groupIdx[gi] = append(groupIdx[gi], i)
	}
	targets := make([]int, 0, len(r.groups))
	for gi := range r.groups {
		if len(groupDocs[gi]) > 0 {
			targets = append(targets, gi)
		}
	}
	err := r.scatter(targets, func(gi int) error {
		return r.writeOnGroup(collection, gi, func(m *member) error {
			var resp wire.InsertManyResponse
			req := wire.InsertManyRequest{Collection: collection, Docs: groupDocs[gi]}
			if err := r.call(m, wire.PathInsertMany, req, &resp); err != nil {
				return err
			}
			m.noteGen(resp.Gen)
			// Each group owns its own input positions.
			for si, oi := range groupIdx[gi] {
				if si < len(resp.IDs) {
					ids[oi] = resp.IDs[si]
				}
			}
			return nil
		})
	})
	return ids, err
}

// bulkRoute is the routing decision for one BulkWrite op: the wire op to
// send and the groups it must run on (inserts pin to one group; updates
// and deletes follow their filter's shard targets).
type bulkRoute struct {
	op      datastore.BulkOp
	targets []int
	err     string // routing-time failure; the op never ships
	skip    bool   // resolved to a no-op (e.g. updateOne with no match)
}

// BulkWrite routes a mixed insert/update/delete batch: ops are grouped
// into one sub-batch per shard group and applied continue-on-error, with
// per-op outcomes merged back into input order. An op whose filter spans
// several groups runs on each and its counts merge additively.
// updateOne ops that would span groups are first pinned to one matching
// document's _id, mirroring the routed UpdateOne. The error return is
// reserved for total failure (every targeted group unavailable); per-op
// failures — including a whole group being down — land in PerOp.
func (r *Router) BulkWrite(collection string, ops []datastore.BulkOp) (datastore.BulkResult, error) {
	res := datastore.BulkResult{PerOp: make([]datastore.BulkOpResult, len(ops))}
	if len(ops) == 0 {
		return res, nil
	}
	routes := make([]bulkRoute, len(ops))
	for i, op := range ops {
		routes[i] = r.routeBulkOp(collection, op)
	}
	// Per-group sub-batches, preserving input order within each group.
	groupOps := make([][]datastore.BulkOp, len(r.groups))
	groupIdx := make([][]int, len(r.groups))
	for i := range routes {
		rt := &routes[i]
		if rt.err != "" {
			res.PerOp[i].Error = rt.err
			continue
		}
		if rt.skip {
			continue
		}
		for _, gi := range rt.targets {
			groupOps[gi] = append(groupOps[gi], rt.op)
			groupIdx[gi] = append(groupIdx[gi], i)
		}
	}
	targets := make([]int, 0, len(r.groups))
	for gi := range r.groups {
		if len(groupOps[gi]) > 0 {
			targets = append(targets, gi)
		}
	}
	if len(targets) == 0 {
		return res, nil
	}
	// An op spanning several groups merges into one PerOp slot, so the
	// merge is shared between the scatter's goroutines.
	var mu sync.Mutex
	failed := 0
	_ = r.scatter(targets, func(gi int) error {
		werr := r.writeOnGroup(collection, gi, func(m *member) error {
			var resp wire.BulkWriteResponse
			req := wire.BulkWriteRequest{Collection: collection, Ops: groupOps[gi]}
			if err := r.call(m, wire.PathBulkWrite, req, &resp); err != nil {
				return err
			}
			m.noteGen(resp.Gen)
			mu.Lock()
			res.Inserted += resp.Inserted
			res.Matched += resp.Matched
			res.Modified += resp.Modified
			res.Removed += resp.Removed
			for si, oi := range groupIdx[gi] {
				if si >= len(resp.PerOp) {
					break
				}
				mergeBulkOpResult(&res.PerOp[oi], resp.PerOp[si])
			}
			mu.Unlock()
			return nil
		})
		if werr != nil {
			mu.Lock()
			failed++
			for _, oi := range groupIdx[gi] {
				if res.PerOp[oi].Error == "" {
					res.PerOp[oi].Error = werr.Error()
				}
			}
			mu.Unlock()
		}
		return nil
	})
	if failed == len(targets) {
		return res, fmt.Errorf("cluster: bulkWrite %s: every targeted shard group failed", collection)
	}
	return res, nil
}

// mergeBulkOpResult folds one group's outcome for an op into the
// cross-group result (counts add; a multi-group op touches disjoint
// documents on each group).
func mergeBulkOpResult(dst *datastore.BulkOpResult, src wire.BulkOpResult) {
	if dst.ID == "" {
		dst.ID = src.ID
	}
	dst.Matched += src.Matched
	dst.Modified += src.Modified
	dst.Removed += src.Removed
	if dst.Error == "" {
		dst.Error = src.Error
	}
}

// routeBulkOp decides where one op runs.
func (r *Router) routeBulkOp(collection string, op datastore.BulkOp) bulkRoute {
	rt := bulkRoute{op: op}
	switch op.Op {
	case datastore.BulkInsert:
		d, gi, err := r.place(op.Doc)
		if err != nil {
			rt.err = err.Error()
			return rt
		}
		rt.op.Doc = d
		rt.targets = []int{gi}
	case datastore.BulkUpdateOne:
		targets, err := r.targets(op.Filter)
		if err != nil {
			rt.err = err.Error()
			return rt
		}
		if len(targets) > 1 {
			// Pin to one matching document so a multi-group updateOne
			// cannot update one document per group (same read-then-pin
			// cycle as the routed UpdateOne; the read skips the cache).
			docs, err := r.findAllCached(collection, op.Filter, &datastore.FindOpts{Limit: 1}, false)
			if err != nil {
				rt.err = err.Error()
				return rt
			}
			if len(docs) == 0 {
				rt.skip = true
				return rt
			}
			id, _ := docs[0]["_id"].(string)
			if id == "" {
				rt.err = "cluster: matched document has no _id"
				return rt
			}
			pinned := document.D{"_id": id}
			rt.op.Op = datastore.BulkUpdateMany
			rt.op.Filter = pinned
			targets, err = r.targets(pinned)
			if err != nil {
				rt.err = err.Error()
				return rt
			}
		}
		rt.targets = targets
	case datastore.BulkUpdateMany, datastore.BulkDelete:
		targets, err := r.targets(op.Filter)
		if err != nil {
			rt.err = err.Error()
			return rt
		}
		rt.targets = targets
	default:
		rt.err = fmt.Sprintf("datastore: unknown bulk op %q", op.Op)
	}
	return rt
}

func (c routedCollection) InsertMany(docs []document.D) ([]string, error) {
	return c.r.InsertMany(c.name, docs)
}

func (c routedCollection) BulkWrite(ops []datastore.BulkOp) (datastore.BulkResult, error) {
	return c.r.BulkWrite(c.name, ops)
}
