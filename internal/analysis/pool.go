package analysis

import (
	"context"
	"runtime"
	"sync"
)

// Pool is a counting semaphore bounding concurrent simulations across
// the whole analysis pipeline. BuildInventory shares one pool between
// its sweeps and completion searches so total concurrency stays bounded
// regardless of how many units run at once. A slot is held only by leaf
// work, such as a memory simulating, never by coordinating goroutines,
// and never while waiting for anything but the slot itself.
//
// The lock order is a replay root first, then a slot: ReplayCache.Run
// locks the root of the evaluation's resistance, serves what its tree
// holds, and takes a slot only to simulate the missing suffix. Nobody
// waits for a root while holding a slot, so the two cannot deadlock,
// and a task waiting for a busy root leaves the slots to tasks on other
// roots.
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

// forEach runs f(0)…f(n-1) concurrently, waits for all of them, and
// returns the lowest-index error — a deterministic choice no matter
// which task failed first in wall-clock time. The tasks hold no pool
// slot: each evaluation takes one itself, only while it simulates. A
// task that starts after ctx is cancelled returns ctx.Err() without
// running f; a running one is never abandoned.
func forEach(ctx context.Context, n int, f func(int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for k := 0; k < n; k++ {
		go func(k int) {
			defer wg.Done()
			if ctx != nil {
				if errs[k] = ctx.Err(); errs[k] != nil {
					return
				}
			}
			errs[k] = f(k)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
