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

// TestReplayLockOrder pins the lock order of the replay cache: a replay
// root first, then a pool slot. With one slot, a factory stalls while it
// builds root A's memory, which holds root A and no slot; a second
// evaluation at A waits for the root. An evaluation at root B must still
// complete, which shows the waiter holds no slot. Cancelling the waiter
// then returns context.Canceled once A frees.
func TestReplayLockOrder(t *testing.T) {
	open := mustOpen(t, 4)
	const rdefA, rdefB = 1e5, 1e6
	inner := behav.NewFactory(behav.DefaultParams())
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
	sos := fp.NewSOS(fp.Init1, fp.R(1))
	guard := time.After(30 * time.Second)

	holder := make(chan error, 1)
	go func() {
		_, err := rc.Run(context.Background(), pool, rdefA, 1, sos)
		holder <- err
	}()
	select {
	case <-entered:
	case <-guard:
		t.Fatal("stall guard: root A's memory was never built")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiter := make(chan error, 1)
	go func() {
		_, err := rc.Run(ctx, pool, rdefA, 2, sos)
		waiter <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter block on root A

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
		t.Fatal("stall guard: the evaluation at root B did not complete while one waited for root A; the waiter holds the slot")
	}
	select {
	case err := <-waiter:
		t.Fatalf("the waiter returned %v while root A was busy", err)
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
			t.Fatalf("stall guard: the %s did not return after root A freed", c.name)
		}
	}
	rc.Close()
}
