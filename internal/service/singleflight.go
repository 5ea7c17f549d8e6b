package service

import (
	"context"
	"sync"
)

// flightGroup collapses concurrent duplicate work: while one caller
// computes the value for a key, later callers with the same key block
// and share the first caller's result instead of recomputing. This is
// the de-duplication layer in front of the expensive sweep pipeline —
// N identical concurrent requests cost one simulation. (Hand-rolled:
// the repo carries no external dependencies.)
type flightGroup struct {
	mu        sync.Mutex
	calls     map[string]*flightCall
	collapsed uint64
}

type flightCall struct {
	done    chan struct{}
	val     []byte
	err     error
	waiters int
	cancel  context.CancelFunc
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: map[string]*flightCall{}}
}

// Do runs fn once per key at a time, detached from every caller's
// context: each caller waits on its own ctx and may leave early, and
// fn's context is cancelled only when the last waiter has left. The
// boolean reports whether this caller joined another's flight. Results
// are not cached beyond the flight — persistent reuse is the store's
// job.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	g.mu.Lock()
	c, joined := g.calls[key]
	if joined {
		g.collapsed++
	} else {
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c = &flightCall{done: make(chan struct{}), cancel: cancel}
		g.calls[key] = c
		go func() {
			c.val, c.err = fn(fctx)
			cancel()
			g.mu.Lock()
			if g.calls[key] == c { // not yet replaced by a newer flight
				delete(g.calls, key)
			}
			g.mu.Unlock()
			close(c.done)
		}()
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, joined, c.err
	case <-ctx.Done():
		g.mu.Lock()
		if c.waiters--; c.waiters == 0 {
			// Nobody wants the result any more: stop the computation and
			// let the next caller start a fresh flight.
			c.cancel()
			if g.calls[key] == c {
				delete(g.calls, key)
			}
		}
		g.mu.Unlock()
		return nil, joined, ctx.Err()
	}
}

// Collapsed reports how many calls joined another caller's flight.
func (g *flightGroup) Collapsed() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.collapsed
}
