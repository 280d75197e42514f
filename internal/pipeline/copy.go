package pipeline

import (
	"fmt"
	"sort"
	"strings"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

// CollectionInserter is the destination surface CopyCollections writes
// through: per-collection inserts plus index creation. A cluster router
// satisfies it (routing each document to its shard group and replicating
// it), as does any local-store wrapper.
type CollectionInserter interface {
	Insert(collection string, doc document.D) (string, error)
	EnsureOrderedIndex(collection string, paths ...string)
}

// CopyCollections streams collections from a built deployment store into
// a destination — the loading path for a networked cluster: Build the
// corpus locally (the workflow tier is process-local), then fan the
// collections out to the shard nodes through the router. Indexes are
// recreated on the destination before the rows land so inserts maintain
// them incrementally. With no names given, every collection is copied.
// Returns the number of documents copied.
func CopyCollections(dst CollectionInserter, src *datastore.Store, collections ...string) (int, error) {
	if len(collections) == 0 {
		collections = src.Collections()
		sort.Strings(collections)
	}
	total := 0
	for _, name := range collections {
		c := src.C(name)
		for _, index := range c.Stats().Indexes {
			dst.EnsureOrderedIndex(name, strings.Split(index, ",")...)
		}
		docs, err := c.FindAll(nil, nil)
		if err != nil {
			return total, fmt.Errorf("pipeline: copy %s: %w", name, err)
		}
		for _, d := range docs {
			if _, err := dst.Insert(name, d); err != nil {
				return total, fmt.Errorf("pipeline: copy %s: %w", name, err)
			}
			total++
		}
	}
	return total, nil
}
