package analysis_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

// TestReplayLockOrder pins the lock order of the replay cache: the
// subtree of the evaluation's setup edge first, then a pool slot.
//
// With one slot, a factory stalls while it builds resistance A's first
// memory, which holds A and no slot; a second evaluation at A waits for
// the build. An evaluation at resistance B must still complete, which
// shows the waiter holds no slot. Cancelling the waiter then returns
// context.Canceled once A frees.
//
// With two slots, a memory stalls mid-simulation at (A, U = 1 V),
// holding that setup edge's subtree and one slot. A second evaluation in
// the same subtree waits for it, and evaluations at (A, U = 2 V) and at
// B must both complete on the other slot, which shows the waiter holds
// no slot and that another subtree at A does not wait for the stalled
// one.
func TestReplayLockOrder(t *testing.T) {
	open := mustOpen(t, 4)
	const rdefA, rdefB = 1e5, 1e6
	inner := behav.NewFactory(behav.DefaultParams())
	sos := fp.NewSOS(fp.Init1, fp.R(1))
	guard := time.After(30 * time.Second)

	t.Run("one slot", func(t *testing.T) {
		entered := make(chan struct{})
		release := make(chan struct{})
		var releaseOnce sync.Once
		free := func() { releaseOnce.Do(func() { close(release) }) }
		t.Cleanup(free)
		factory := func(o defect.Open, r float64) (analysis.Memory, error) {
			if r == rdefA {
				close(entered)
				<-release
			}
			return inner(o, r)
		}
		rc := analysis.NewReplayCache(factory, open, open.Floats[0].Nets)
		pool := analysis.NewPool(1)

		holder := make(chan error, 1)
		go func() {
			_, err := rc.Run(context.Background(), pool, rdefA, 1, sos)
			holder <- err
		}()
		select {
		case <-entered:
		case <-guard:
			t.Fatal("stall guard: resistance A's memory was never built")
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		waiter := make(chan error, 1)
		go func() {
			_, err := rc.Run(ctx, pool, rdefA, 2, sos)
			waiter <- err
		}()
		time.Sleep(50 * time.Millisecond) // let the waiter block on A's build

		other := make(chan error, 1)
		go func() {
			_, err := rc.Run(context.Background(), pool, rdefB, 1, sos)
			other <- err
		}()
		select {
		case err := <-other:
			if err != nil {
				t.Fatal(err)
			}
		case <-guard:
			t.Fatal("stall guard: the evaluation at B did not complete while one waited for A's build; the waiter holds the slot")
		}
		select {
		case err := <-waiter:
			t.Fatalf("the waiter returned %v while A was building", err)
		default:
		}

		cancel()
		free()
		for _, c := range []struct {
			name string
			ch   chan error
			want error
		}{{"holder", holder, nil}, {"waiter", waiter, context.Canceled}} {
			select {
			case err := <-c.ch:
				if !errors.Is(err, c.want) {
					t.Fatalf("%s returned %v, want %v", c.name, err, c.want)
				}
			case <-guard:
				t.Fatalf("stall guard: the %s did not return after A freed", c.name)
			}
		}
		rc.Close()
	})

	t.Run("two slots", func(t *testing.T) {
		entered := make(chan struct{})
		release := make(chan struct{})
		var enterOnce, releaseOnce sync.Once
		free := func() { releaseOnce.Do(func() { close(release) }) }
		t.Cleanup(free)
		factory := func(o defect.Open, r float64) (analysis.Memory, error) {
			m, err := inner(o, r)
			if err != nil || r != rdefA {
				return m, err
			}
			return hookMemory{Snapshotter: m.(analysis.Snapshotter), onSet: func(u float64) {
				if u == 1 {
					enterOnce.Do(func() { close(entered) })
					<-release
				}
			}}, nil
		}
		rc := analysis.NewReplayCache(factory, open, open.Floats[0].Nets)
		pool := analysis.NewPool(2)

		holder := make(chan error, 1)
		go func() {
			_, err := rc.Run(context.Background(), pool, rdefA, 1, sos)
			holder <- err
		}()
		select {
		case <-entered:
		case <-guard:
			t.Fatal("stall guard: the simulation at (A, 1 V) never started")
		}

		waiter := make(chan error, 1)
		go func() {
			_, err := rc.Run(context.Background(), pool, rdefA, 1, fp.NewSOS(fp.Init1, fp.R(1), fp.R(1)))
			waiter <- err
		}()
		time.Sleep(50 * time.Millisecond) // let the waiter block on the subtree

		others := make(chan error, 2)
		for _, at := range []struct{ rdef, u float64 }{{rdefA, 2}, {rdefB, 1}} {
			go func() {
				_, err := rc.Run(context.Background(), pool, at.rdef, at.u, sos)
				others <- err
			}()
		}
		for range 2 {
			select {
			case err := <-others:
				if err != nil {
					t.Fatal(err)
				}
			case <-guard:
				t.Fatal("stall guard: an evaluation at (A, 2 V) or at B did not complete while one waited in the subtree of (A, 1 V); the waiter holds a slot or the subtrees share a lock")
			}
		}
		select {
		case err := <-waiter:
			t.Fatalf("the waiter returned %v while its subtree was busy", err)
		default:
		}

		free()
		for _, c := range []struct {
			name string
			ch   chan error
		}{{"holder", holder}, {"waiter", waiter}} {
			select {
			case err := <-c.ch:
				if err != nil {
					t.Fatalf("%s returned %v", c.name, err)
				}
			case <-guard:
				t.Fatalf("stall guard: the %s did not return after the stall ended", c.name)
			}
		}
		rc.Close()
	})
}

// hookMemory calls onSet with the voltage before every SetFloat, which
// opens each setup edge's simulation.
type hookMemory struct {
	analysis.Snapshotter
	onSet func(u float64)
}

func (m hookMemory) SetFloat(nets []string, u float64) {
	m.onSet(u)
	m.Snapshotter.SetFloat(nets, u)
}
