// Package dfs implements the HDFS pre-staging path of §IV-B2: "For
// larger-scale analytics ... efficiency can be gained by pre-staging the
// MongoDB data to HDFS", while "MongoDB will continue to contain
// references to the data that allow queries to be performed using the
// QueryEngine abstraction layer".
//
// A staged set is a directory of NDJSON chunk files plus a reference
// document registered back in the datastore (the dfs_refs collection).
// RunStaged executes a MapReduce job directly over the chunk files with
// chunk-level parallelism, bypassing the store entirely — the
// "Hadoop reading HDFS" configuration of the paper's comparison.
package dfs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/mapreduce"
)

// RefsCollection is where staged-set references live in the store.
const RefsCollection = "dfs_refs"

// FS is a root directory acting as the distributed filesystem.
type FS struct {
	Root string
}

// Open creates (if needed) and opens a DFS root.
func Open(root string) (*FS, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: %w", err)
	}
	return &FS{Root: root}, nil
}

// StagedSet describes one staged collection.
type StagedSet struct {
	Name   string
	Chunks []string // chunk file paths, ordered
	Docs   int
}

// Stage exports every document of a collection matching filter into
// chunk files of at most chunkDocs documents each, and registers a
// reference document in the source store.
func (fs *FS) Stage(store *datastore.Store, collection string, filter document.D, name string, chunkDocs int) (*StagedSet, error) {
	if chunkDocs < 1 {
		chunkDocs = 1000
	}
	docs, err := store.C(collection).FindAll(filter, nil)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(fs.Root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: %w", err)
	}
	set := &StagedSet{Name: name, Docs: len(docs)}
	for start := 0; start < len(docs); start += chunkDocs {
		end := start + chunkDocs
		if end > len(docs) {
			end = len(docs)
		}
		path := filepath.Join(dir, fmt.Sprintf("chunk-%05d.ndjson", len(set.Chunks)))
		if err := writeChunk(path, docs[start:end]); err != nil {
			return nil, err
		}
		set.Chunks = append(set.Chunks, path)
	}
	// "MongoDB will continue to contain references to the data": register
	// the staged set in the store so QueryEngine users can discover it.
	chunks := make([]any, len(set.Chunks))
	for i, c := range set.Chunks {
		chunks[i] = c
	}
	refs := store.C(RefsCollection)
	if _, err := refs.Remove(document.D{"_id": "dfsref-" + name}); err != nil {
		return nil, err
	}
	if _, err := refs.Insert(document.D{
		"_id":        "dfsref-" + name,
		"collection": collection,
		"docs":       int64(set.Docs),
		"chunks":     chunks,
	}); err != nil {
		return nil, err
	}
	return set, nil
}

// LoadRef reconstructs a StagedSet from its reference document.
func LoadRef(store *datastore.Store, name string) (*StagedSet, error) {
	ref, err := store.C(RefsCollection).FindID("dfsref-" + name)
	if err != nil {
		return nil, fmt.Errorf("dfs: no staged set %q: %w", name, err)
	}
	set := &StagedSet{Name: name}
	if n, ok := ref.GetInt("docs"); ok {
		set.Docs = int(n)
	}
	for _, c := range ref.GetArray("chunks") {
		if s, ok := c.(string); ok {
			set.Chunks = append(set.Chunks, s)
		}
	}
	return set, nil
}

func writeChunk(path string, docs []document.D) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dfs: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, d := range docs {
		if err := enc.Encode(map[string]any(d)); err != nil {
			f.Close()
			return fmt.Errorf("dfs: encode: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadChunk loads one chunk file.
func ReadChunk(path string) ([]document.D, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dfs: %w", err)
	}
	defer f.Close()
	var out []document.D
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		d, err := document.FromJSON(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("dfs: %s line %d: %w", path, line, err)
		}
		out = append(out, d)
	}
	return out, sc.Err()
}

// RunStaged executes a MapReduce job over a staged set on the
// mapreduce engine, one chunk file per engine chunk: workers (<= 0 means
// GOMAXPROCS) read, map and combine chunks independently, then groups
// merge and reduce. Results are sorted by key.
func RunStaged(set *StagedSet, mapper mapreduce.MapFunc, reducer mapreduce.ReduceFunc, workers int) ([]mapreduce.Result, error) {
	return mapreduce.RunChunks(len(set.Chunks), func(i int) ([]document.D, error) {
		return ReadChunk(set.Chunks[i])
	}, mapper, reducer, workers)
}
