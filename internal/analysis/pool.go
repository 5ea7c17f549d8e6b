package analysis

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a counting semaphore bounding concurrent simulations across
// the whole analysis pipeline. BuildInventory shares one pool between
// its sweeps and completion searches so total concurrency stays bounded
// regardless of how many units run at once. A slot is held only by leaf
// work, such as a memory simulating, never by coordinating goroutines
// (ForEach workers, units, corners, batch items), and never while
// waiting for anything but the slot itself.
//
// The lock order is a replay subtree first, then a slot, then the
// resistance's lease list: ReplayCache.Run locks the subtree of the
// evaluation's setup edge, serves what it holds, and takes a slot only
// to simulate the missing suffix, on a memory of the resistance that it
// leases under the slot. The lease list's lock is held only to take or
// return a memory. Nobody waits for a subtree while holding a slot, so
// the two cannot deadlock, and a task waiting for a busy subtree leaves
// the slots to tasks on other subtrees. Because memories are leased only
// under a slot, a resistance never holds more memories than the pool
// has slots.
type Pool struct {
	sem chan struct{}
}

// NewPool creates a pool admitting n concurrent tasks; n <= 0 means
// GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Slots reports how many tasks the pool admits at once.
func (p *Pool) Slots() int { return cap(p.sem) }

// Do runs f while holding a pool slot, blocking until one is free.
func (p *Pool) Do(f func()) {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	f()
}

// DoContext runs f while holding a pool slot, giving up with ctx.Err()
// if the context is cancelled before a slot frees up (or by the time
// one does). A nil context degrades to Do; a nil pool runs f without a
// slot, after the same context check. Once f starts it runs to
// completion — leaf simulations are short; cancellation cuts the queue,
// not a simulation mid-flight.
func (p *Pool) DoContext(ctx context.Context, f func()) error {
	if p == nil {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		f()
		return nil
	}
	if ctx == nil {
		p.Do(f)
		return nil
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.sem }()
	if err := ctx.Err(); err != nil {
		return err
	}
	f()
	return nil
}

// ForEach runs f(0)…f(n-1) on min(n, workers) goroutines, which take
// the indices in order from a shared counter; workers below 1 count as
// 1. Every index runs once: a task that starts after ctx is cancelled
// returns ctx.Err() without running f, and a running one is never
// abandoned; a nil ctx never cancels. ForEach returns the lowest-index
// error, whichever task failed first in wall-clock time. The workers
// hold no pool slot, so a loop whose tasks simulate passes the pool's
// slots: more workers would only wait for a slot.
func ForEach(ctx context.Context, n, workers int, f func(int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, max(workers, 1)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				if ctx != nil {
					if errs[k] = ctx.Err(); errs[k] != nil {
						continue
					}
				}
				errs[k] = f(k)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
