package datastore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"matproj/internal/document"
	"matproj/internal/obs"
)

// TestInstrumentedStoreConcurrentStress hammers an instrumented store
// with concurrent writers and readers while metric snapshots are taken
// in parallel — the observability layer must never lose counts, corrupt
// a histogram, or trip the race detector. This is the datastore half of
// the obs stress pair (the registry-only half lives in internal/obs).
func TestInstrumentedStoreConcurrentStress(t *testing.T) {
	const (
		writers = 6
		readers = 4
		perG    = 120
	)
	store := MustOpenMemory()
	defer store.Close()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(time.Nanosecond, 64) // everything is "slow": stress the ring too
	store.Observe(reg, tr)

	c := store.C("stress")
	c.EnsureOrderedIndex("shard")

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perG; i++ {
				doc := document.D{
					"shard": int64(w),
					"seq":   int64(i),
					"body":  fmt.Sprintf("w%d-%d", w, i),
				}
				if _, err := c.Insert(doc); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%3 == 0 {
					if _, err := c.UpdateOne(
						document.D{"shard": int64(w), "seq": int64(i)},
						document.D{"$set": document.D{"touched": true}}); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.FindAll(document.D{"shard": int64(r % writers)}, nil); err != nil {
					t.Errorf("find: %v", err)
					return
				}
				// Concurrent snapshot + render must not disturb writers.
				snap := reg.Snapshot()
				if h, ok := snap.Histograms["datastore.insert_ms"]; ok {
					_ = h.Render("ms", 40)
					_ = h.Quantile(50)
				}
				_ = tr.SlowOps()
			}
		}(r)
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	snap := reg.Snapshot()
	wantInserts := uint64(writers * perG)
	if got := snap.Counters["datastore.stress.insert"]; got != wantInserts {
		t.Fatalf("insert counter: got %d, want %d", got, wantInserts)
	}
	wantUpdates := uint64(writers * ((perG + 2) / 3))
	if got := snap.Counters["datastore.stress.update"]; got != wantUpdates {
		t.Fatalf("update counter: got %d, want %d", got, wantUpdates)
	}
	h, ok := snap.Histograms["datastore.insert_ms"]
	if !ok {
		t.Fatal("no insert latency histogram")
	}
	if h.Count != wantInserts {
		t.Fatalf("insert histogram count: got %d, want %d", h.Count, wantInserts)
	}
	var bucketSum uint64
	for _, n := range h.Counts {
		bucketSum += n
	}
	if bucketSum != h.Count {
		t.Fatalf("histogram buckets sum to %d, count says %d", bucketSum, h.Count)
	}
	n, err := c.Count(nil)
	if err != nil || n != writers*perG {
		t.Fatalf("collection count: got %d (err %v), want %d", n, err, writers*perG)
	}
	total, slow := tr.Counts()
	if total == 0 || slow == 0 {
		t.Fatalf("tracer saw no ops (total %d, slow %d)", total, slow)
	}
	if ops := tr.SlowOps(); len(ops) == 0 || len(ops) > 64 {
		t.Fatalf("slow ring has %d entries, want 1..64", len(ops))
	}
}
