package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync/atomic"

	"matproj/internal/cluster/wire"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/query"
)

// This file holds the router's placement and merge primitives: which
// group an _id hashes to, how a read's options split between the shards
// and the gatherer, and the global merge-sort/skip/limit semantics that
// make a scatter-gathered read answer exactly like one store.

// hashShard maps a shard-key value to a group index in [0, n). The hash
// is FNV-1a over the value's print form, so int64(5) and float64(5)
// route identically.
func hashShard(v any, n int) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%v", v)
	return int(h.Sum32() % uint32(n))
}

// splitFindOpts splits a query's options into the per-shard options
// (projection and sort pushed down; skip always cleared) and the global
// sort/skip/limit the gatherer applies after the merge. Sorted, limited
// queries push a skip+limit cap down to each shard; unsorted queries
// clear the limit too, because a shard cannot truncate an arbitrary
// order without dropping globally needed rows.
func splitFindOpts(opts *datastore.FindOpts) (perShard *datastore.FindOpts, sortSpec []string, skip, limit int) {
	if opts == nil {
		return nil, nil, 0, 0
	}
	o := *opts
	sortSpec = o.Sort
	// A negative skip counts as 0, as it does on a standalone store.
	skip, limit = max(o.Skip, 0), o.Limit
	o.Skip, o.Limit = 0, 0
	// Limit pushdown: with an explicit sort, the global top (skip+limit)
	// rows are contained in the union of each shard's top (skip+limit)
	// rows, so shards can stop early. Without a sort the per-shard order
	// is arbitrary and truncating it could drop rows the merge needs.
	if len(sortSpec) > 0 && limit > 0 {
		o.Limit = skip + limit
	}
	return &o, sortSpec, skip, limit
}

// mergeSpans applies the global half of a scatter-gathered read to the
// groups' replies: it orders every document by its merge key under
// query.MergeKeys — the requested sort's directions, or _id without a
// sort — stably, in group order, which is one store's stable sort of the concatenated
// replies, then applies skip and limit. Only the keys are compared; the
// documents stay bytes.
func mergeSpans(replies []*wire.FindReply, sortSpec []string, skip, limit int) ([][]byte, error) {
	keys, err := query.MergeKeys(sortSpec)
	if err != nil {
		//lint:ignore wrapcheck a bad sort is the caller's error, relayed verbatim so a routed answer reads exactly like a standalone store's
		return nil, err
	}
	type row struct {
		doc []byte
		key []any
	}
	var rows []row
	for _, rep := range replies {
		if len(rep.Keys) != len(rep.Docs) {
			return nil, fmt.Errorf("cluster: find reply carries %d merge keys for %d documents", len(rep.Keys), len(rep.Docs))
		}
		for i, d := range rep.Docs {
			if len(rep.Keys[i]) != len(keys) {
				return nil, fmt.Errorf("cluster: merge key %v does not match sort %v", rep.Keys[i], sortSpec)
			}
			rows = append(rows, row{d, rep.Keys[i]})
		}
	}
	slices.SortStableFunc(rows, func(a, b row) int { return query.CompareSortValues(a.key, b.key, keys) })
	if skip > 0 {
		rows = rows[min(skip, len(rows)):]
	}
	if limit > 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	docs := make([][]byte, len(rows))
	for i, r := range rows {
		docs[i] = r.doc
	}
	return docs, nil
}

// mergeDistinct unions per-shard distinct-value lists in document.Compare
// order, dropping duplicates. Equal is Compare == 0, so after a stable
// sort duplicates are adjacent and the first occurrence (in shard order)
// of each value survives.
func mergeDistinct(lists [][]any) []any {
	var out []any
	for _, vals := range lists {
		out = append(out, vals...)
	}
	sort.SliceStable(out, func(i, j int) bool { return document.Compare(out[i], out[j]) < 0 })
	kept := out[:0]
	for _, v := range out {
		if len(kept) == 0 || document.Compare(kept[len(kept)-1], v) != 0 {
			kept = append(kept, v)
		}
	}
	return kept
}

var mintCounter atomic.Uint64

// mintID mints a cluster-unique document id at the router, so every
// group member stores an identical document and the hash routes
// deterministically.
func mintID() string {
	return fmt.Sprintf("sh%012x", mintCounter.Add(1))
}
