// Package vclock is the sanctioned home for wall-clock access.
//
// The fault-injection, lease, and health machinery (PRs 1–3) is
// deterministic only while every time-dependent decision flows through
// an injectable source. mplint's clockdiscipline analyzer forbids
// direct time.Now / time.Sleep / time.NewTicker calls in internal/
// packages; production code takes a vclock.Clock (defaulting to Wall)
// and tests substitute a Fake driven by Advance.
package vclock

import (
	"sync"
	"time"
)

// Clock is the minimal time source the health loops and lease sweeps
// need: reading the current instant, blocking for a duration, and
// ticking at an interval.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	NewTicker(d time.Duration) Ticker
}

// Ticker is the injectable subset of time.Ticker.
type Ticker interface {
	// Chan returns the channel ticks are delivered on.
	Chan() <-chan time.Time
	Stop()
}

// Wall is the real wall clock. This package is the only internal/
// package allowed to call into package time directly.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time        { return time.Now() }
func (wall) Sleep(d time.Duration) { time.Sleep(d) }
func (wall) NewTicker(d time.Duration) Ticker {
	return wallTicker{t: time.NewTicker(d)}
}

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) Chan() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()                  { w.t.Stop() }

// Seconds reports c's current time as float64 seconds, the unit the
// fireworks lease machinery uses (only differences matter).
func Seconds(c Clock) float64 {
	return float64(c.Now().UnixNano()) / 1e9
}

// Fake is a manually advanced Clock for deterministic tests. Sleep
// blocks until Advance moves the clock past the wake-up time; tickers
// fire once per elapsed interval during an Advance.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	wakeups []*fakeWaiter
	tickers []*fakeTicker
}

type fakeWaiter struct {
	at time.Time
	ch chan struct{}
}

// NewFake returns a Fake clock starting at start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Advance moves the clock forward, waking due sleepers and delivering
// due ticks (non-blocking: a tick is dropped if nobody is receiving,
// matching time.Ticker's coalescing behavior).
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	var due []*fakeWaiter
	rest := f.wakeups[:0]
	for _, w := range f.wakeups {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	f.wakeups = rest
	tickers := append([]*fakeTicker(nil), f.tickers...)
	f.mu.Unlock()

	for _, w := range due {
		close(w.ch)
	}
	for _, t := range tickers {
		t.deliver(now)
	}
}

func (f *Fake) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	f.mu.Lock()
	w := &fakeWaiter{at: f.now.Add(d), ch: make(chan struct{})}
	f.wakeups = append(f.wakeups, w)
	f.mu.Unlock()
	<-w.ch
}

func (f *Fake) NewTicker(d time.Duration) Ticker {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTicker{f: f, interval: d, next: f.now.Add(d), ch: make(chan time.Time, 1)}
	f.tickers = append(f.tickers, t)
	return t
}

type fakeTicker struct {
	f        *Fake
	mu       sync.Mutex
	interval time.Duration
	next     time.Time
	stopped  bool
	ch       chan time.Time
}

func (t *fakeTicker) Chan() <-chan time.Time { return t.ch }

func (t *fakeTicker) Stop() {
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
}

func (t *fakeTicker) deliver(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	for !t.next.After(now) {
		t.next = t.next.Add(t.interval)
		select {
		case t.ch <- now:
		default:
		}
	}
}
