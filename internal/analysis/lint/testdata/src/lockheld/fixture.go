// Golden fixture for the lockheld analyzer, loaded as if it lived in
// internal/cluster (in scope).
package fixture

import (
	"os"
	"sync"
	"time"
)

type guarded struct {
	mu sync.Mutex
	ch chan int
	n  int
}

func (g *guarded) explicitRegion(path string) {
	g.mu.Lock()
	os.Remove(path)              // want `os\.Remove \(file I/O\) while holding g\.mu`
	time.Sleep(time.Millisecond) // want `time\.Sleep \(blocking\) while holding g\.mu`
	g.ch <- 1                    // want `channel send while holding g\.mu`
	g.mu.Unlock()
	os.Remove(path) // after Unlock: allowed
}

func (g *guarded) deferredRegion(path string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n > 0 {
		os.Remove(path) // want `os\.Remove \(file I/O\) while holding g\.mu`
	}
	os.Stat(path) // want `os\.Stat \(file I/O\) while holding g\.mu`
}

func (g *guarded) goroutineEscapes() {
	g.mu.Lock()
	defer g.mu.Unlock()
	// Work inside a function literal runs when called (usually another
	// goroutine): not reported.
	go func() {
		time.Sleep(time.Millisecond)
	}()
	g.n++
}

func (g *guarded) pureCriticalSection() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}
