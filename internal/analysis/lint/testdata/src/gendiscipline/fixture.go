// Golden fixture for the gendiscipline analyzer, loaded as if it lived
// in internal/datastore (in scope). The Collection type mirrors the
// shape the analyzer is configured for; the rcache import exercises the
// consult-side freshness rule.
package fixture

import (
	"sync"
	"sync/atomic"

	"matproj/internal/rcache"
)

type Collection struct {
	mu   sync.RWMutex
	gen  atomic.Uint64
	docs map[string]int
}

func (c *Collection) bumpGenLocked() { c.gen.Add(1) }

func (c *Collection) Generation() uint64 { return c.gen.Load() }

// NewCollection is a constructor: writes before publication are exempt.
func NewCollection() *Collection {
	return &Collection{docs: map[string]int{}}
}

// goodInsert bumps inside the write lock: the discipline.
func (c *Collection) goodInsert(id string, v int) {
	c.mu.Lock()
	c.docs[id] = v
	c.bumpGenLocked()
	c.mu.Unlock()
}

func (c *Collection) bumpOutsideLock() {
	c.bumpGenLocked() // want `bumpGenLocked called without holding the Collection write lock`
}

func (c *Collection) writeOutsideLock(id string) {
	delete(c.docs, id) // want `Collection\.docs mutated without holding the Collection write lock`
}

func (c *Collection) regionMissingBump(id string, v int) {
	c.mu.Lock() // want `write-locked region mutates Collection data but never bumps the generation`
	c.docs[id] = v
	c.mu.Unlock()
}

// setLocked itself is clean: its only caller guarantees the lock.
func (c *Collection) setLocked(id string, v int) {
	c.docs[id] = v
}

func (c *Collection) regionViaCallMissingBump(id string, v int) {
	c.mu.Lock() // want `write-locked region mutates Collection data but never bumps the generation`
	c.setLocked(id, v)
	c.mu.Unlock()
}

func badConsult(cache *rcache.Cache) (any, error) {
	v, _, err := cache.GetOrCompute("k", 7, func() (any, error) { return 1, nil }) // want `generation passed to GetOrCompute does not derive from a generation counter`
	return v, err
}

func goodConsult(cache *rcache.Cache, c *Collection) (any, error) {
	gen := c.Generation()
	v, _, err := cache.GetOrCompute("k", gen, func() (any, error) { return 1, nil })
	return v, err
}
