package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"

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
	skip, limit = o.Skip, o.Limit
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

// mergeDocs applies the global half of a scatter-gathered read: sort the
// concatenated per-shard results (by the requested sort, or by _id for a
// deterministic cross-shard order), then skip/limit.
func mergeDocs(docs []document.D, sortSpec []string, skip, limit int) ([]document.D, error) {
	if len(sortSpec) > 0 {
		keys, err := query.ParseSort(sortSpec)
		if err != nil {
			//lint:ignore wrapcheck a bad sort is the caller's error, relayed verbatim so a routed answer reads exactly like a standalone store's
			return nil, err
		}
		query.SortDocs(docs, keys)
	} else {
		sort.Slice(docs, func(i, j int) bool {
			a, _ := docs[i]["_id"].(string)
			b, _ := docs[j]["_id"].(string)
			return a < b
		})
	}
	if skip > 0 {
		if skip >= len(docs) {
			docs = nil
		} else {
			docs = docs[skip:]
		}
	}
	if limit > 0 && limit < len(docs) {
		docs = docs[:limit]
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
