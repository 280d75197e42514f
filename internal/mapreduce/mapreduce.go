// Package mapreduce implements the repository's one MapReduce engine,
// and both sides of the paper's §IV-B2 comparison run on it: the
// Hadoop-style parallel engine, "several times faster" than MongoDB's
// built-in single-threaded MapReduce, and that built-in baseline itself
// (Builtin: one worker plus a serialization round trip per document).
// The DFS pre-staging path (package dfs) feeds it chunk files instead of
// a collection.
//
// The engine maps chunks of input on parallel workers, combines each
// chunk's groups with the reduce function (valid because reduce must be
// associative), shuffles the groups by key hash into reduce partitions,
// reduces the partitions in parallel, and returns the results sorted by
// key. The paper also notes (§IV-C2) that MapReduce "is a logical
// language in which to write the V&V of a database"; the builder
// package layers its validation framework on this engine.
package mapreduce

import (
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

// MapFunc emits zero or more key/value pairs for a document.
type MapFunc func(doc document.D, emit func(key string, value any))

// ReduceFunc folds the values emitted for one key into a single value.
// It is also run as a combiner on partial groups, so it must be
// associative over its output type. A group with a single value is
// never reduced.
type ReduceFunc func(key string, values []any) any

// Result is one reduced group.
type Result struct {
	Key   string
	Value any
}

// RunChunks executes a job over n chunks of input, loading chunk i with
// load(i), on workers map workers and as many reduce partitions; workers
// <= 0 means GOMAXPROCS. Every emitted value and every reducer output is
// normalized (document.Normalize), so a job sees the same values whether
// its input came from the store or from JSON. It returns one Result per
// distinct key, sorted by key, or the error of the lowest-numbered chunk
// that failed to load.
func RunChunks(n int, load func(i int) ([]document.D, error), mapper MapFunc, reducer ReduceFunc, workers int) ([]Result, error) {
	if n == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// --- map phase: workers claim chunks; each chunk's groups are
	// shuffled by key hash into reduce partitions and combined ---
	// parts[w] lists map worker w's chunks, each as its groups by
	// partition.
	parts := make([][][]map[string][]any, min(workers, n))
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				docs, err := load(i)
				if err != nil {
					errs[i] = err
					return
				}
				chunk := make([]map[string][]any, workers)
				emit := func(key string, value any) {
					p := partitionOf(key, workers)
					if chunk[p] == nil {
						chunk[p] = make(map[string][]any)
					}
					chunk[p][key] = append(chunk[p][key], document.Normalize(value))
				}
				for _, d := range docs {
					mapper(d, emit)
				}
				for _, groups := range chunk {
					for k, vs := range groups {
						if len(vs) > 1 {
							groups[k] = []any{document.Normalize(reducer(k, vs))}
						}
					}
				}
				parts[w] = append(parts[w], chunk)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// --- reduce phase: one goroutine per partition ---
	reduced := make([][]Result, workers)
	for p := range reduced {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			groups := make(map[string][]any)
			for _, chunks := range parts {
				for _, chunk := range chunks {
					for k, vs := range chunk[p] {
						groups[k] = append(groups[k], vs...)
					}
				}
			}
			out := make([]Result, 0, len(groups))
			for k, vs := range groups {
				v := vs[0]
				if len(vs) > 1 {
					v = document.Normalize(reducer(k, vs))
				}
				out = append(out, Result{Key: k, Value: v})
			}
			reduced[p] = out
		}(p)
	}
	wg.Wait()

	// --- merge, sorted by key ---
	total := 0
	for _, out := range reduced {
		total += len(out)
	}
	results := make([]Result, 0, total)
	for _, out := range reduced {
		results = append(results, out...)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Key < results[j].Key })
	return results, nil
}

// Run executes the job over docs, cut into one chunk per worker.
func Run(docs []document.D, mapper MapFunc, reducer ReduceFunc, workers int) []Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := min(workers, len(docs))
	res, _ := RunChunks(n, func(i int) ([]document.D, error) {
		return docs[i*len(docs)/n : (i+1)*len(docs)/n], nil
	}, mapper, reducer, workers)
	return res
}

// RunCollection runs the job over the documents of c matching filter
// and returns one {"_id": key, "value": reduced} document per key,
// sorted by key.
func RunCollection(c *datastore.Collection, filter document.D, mapper MapFunc, reducer ReduceFunc, workers int) ([]document.D, error) {
	docs, err := c.FindAll(filter, nil)
	if err != nil {
		return nil, err
	}
	res := Run(docs, mapper, reducer, workers)
	out := make([]document.D, len(res))
	for i, r := range res {
		out[i] = document.D{"_id": r.Key, "value": r.Value}
	}
	return out, nil
}

// Builtin is the §IV-B2 baseline, modelled on MongoDB's built-in
// MapReduce, which the paper (§IV-C2) notes "is severely limited by
// implementation within a single-threaded Javascript engine". It runs
// RunCollection on one worker and pays a serialization round trip per
// document before mapping it, mirroring the BSON→JS value conversion
// that dominates Mongo's MapReduce cost.
func Builtin(c *datastore.Collection, filter document.D, mapper MapFunc, reducer ReduceFunc) ([]document.D, error) {
	// One worker maps every document, so rtErr is written by one
	// goroutine and read after RunCollection has waited for it.
	var rtErr error
	out, err := RunCollection(c, filter, func(d document.D, emit func(string, any)) {
		b, err := d.ToJSON()
		if err == nil {
			d, err = document.FromJSON(b)
		}
		if err != nil {
			rtErr = err
			return
		}
		mapper(d, emit)
	}, reducer, 1)
	if rtErr != nil {
		return nil, rtErr
	}
	return out, err
}

func partitionOf(key string, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}
