// Golden fixture for the atomicmix analyzer, loaded as if it lived in
// internal/cluster (in scope). One field is touched through sync/atomic
// package functions — the shape that leaves plain access compilable —
// and one typed atomic is loaded twice inside a single decision.
package fixture

import "sync/atomic"

type counters struct {
	n    int64
	hits atomic.Uint64
}

func (c *counters) inc() {
	atomic.AddInt64(&c.n, 1) // want `sync/atomic\.AddInt64 operates on a plain variable .* declare it as a typed atomic`
}

func (c *counters) read() int64 {
	return atomic.LoadInt64(&c.n) // want `sync/atomic\.LoadInt64 operates on a plain variable .* declare it as a typed atomic`
}

// The typed API is the sanctioned one.
func (c *counters) hit() { c.hits.Add(1) }

func (c *counters) badDoubleLoad(use func(uint64)) {
	if c.hits.Load() > 0 {
		use(c.hits.Load()) // want `atomic c\.hits is loaded again inside the same decision \(first load at fixture\.go:\d+\)`
	}
}

func (c *counters) okSingleLoad(use func(uint64)) {
	if h := c.hits.Load(); h > 0 {
		use(h)
	}
}

// A second decision is a second load: allowed.
func (c *counters) okSeparateDecisions(use func(uint64)) {
	if c.hits.Load() == 0 {
		return
	}
	use(c.hits.Load())
}
