package datastore

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"matproj/internal/document"
)

// Concurrency stress tests: the store simultaneously serves the workflow
// engine (claims + status updates), the builders (scans + rebuilds), and
// the web tier (reads) — §III-B's point is that one deployment carries
// all three. These tests hammer those paths together under -race.

func TestConcurrentMixedWorkload(t *testing.T) {
	s := MustOpenMemory()
	c := s.C("engines")
	const writers, readers, updaters, docsPerWriter = 4, 4, 2, 100
	c.EnsureOrderedIndex("state")

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				_, err := c.Insert(document.D{
					"_id":   fmt.Sprintf("w%d-%03d", w, i),
					"state": "ready",
					"n":     int64(i),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := c.FindAll(document.D{"state": "ready"}, &FindOpts{Limit: 10}); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Count(document.D{"n": document.D{"$gte": 50}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, err := c.UpdateMany(
					document.D{"n": int64(i % docsPerWriter)},
					document.D{"$inc": document.D{"touched": 1}})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	n, _ := c.Count(nil)
	if n != writers*docsPerWriter {
		t.Errorf("count = %d, want %d", n, writers*docsPerWriter)
	}
}

func TestConcurrentClaimsWithChurn(t *testing.T) {
	s := MustOpenMemory()
	c := s.C("engines")
	c.EnsureOrderedIndex("state")
	const jobs = 300
	for i := 0; i < jobs; i++ {
		c.Insert(document.D{"_id": fmt.Sprintf("j%04d", i), "state": "ready"})
	}
	var mu sync.Mutex
	claimed := map[string]bool{}
	var wg sync.WaitGroup
	// Claimers compete while a churner keeps adding load on the same
	// collection (profiling reads + unrelated inserts).
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Insert(document.D{"state": "done", "filler": int64(i)})
			c.FindAll(document.D{"state": "done"}, &FindOpts{Limit: 5})
			i++
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				got, err := c.FindAndModify(
					document.D{"state": "ready"},
					document.D{"$set": document.D{"state": "running"}},
					nil, true)
				if errors.Is(err, ErrNotFound) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				id := got["_id"].(string)
				mu.Lock()
				if claimed[id] {
					t.Errorf("double claim of %s", id)
				}
				claimed[id] = true
				mu.Unlock()
			}
		}()
	}
	// Wait for claimers only, then stop the churner.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Claimers exit when the queue drains; the churner needs the signal.
	for {
		mu.Lock()
		n := len(claimed)
		mu.Unlock()
		if n == jobs {
			break
		}
		select {
		case <-done:
		default:
		}
	}
	close(stop)
	<-done
	if len(claimed) != jobs {
		t.Errorf("claimed %d/%d", len(claimed), jobs)
	}
}

func TestConcurrentDurableWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.C("x")
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.Insert(document.D{"_id": fmt.Sprintf("d%d-%02d", w, i), "v": int64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, _ := s2.C("x").Count(nil)
	if n != 300 {
		t.Errorf("replayed %d/300", n)
	}
}

func TestConcurrentIndexCreationAndQueries(t *testing.T) {
	s := MustOpenMemory()
	c := s.C("x")
	for i := 0; i < 500; i++ {
		c.Insert(document.D{"n": int64(i % 50), "tag": fmt.Sprintf("t%d", i%7)})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.EnsureOrderedIndex("n")
			c.EnsureOrderedIndex("tag")
			for i := 0; i < 50; i++ {
				got, err := c.FindAll(document.D{"n": int64(i)}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if i < 50 && len(got) != 10 {
					t.Errorf("n=%d returned %d docs", i, len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
}
