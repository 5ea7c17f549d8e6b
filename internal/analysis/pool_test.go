package analysis_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/numeric"
)

// TestSweepGoroutinesBounded: a dense sweep runs its points on at most
// the pool's number of workers. With both slots of a 2-slot pool held,
// every point of a 64×64 plane waits for a slot, and the sweep must not
// hold a goroutine per point meanwhile: the goroutine count may rise
// only by the pool's slots plus a constant.
func TestSweepGoroutinesBounded(t *testing.T) {
	const slots, side, slack = 2, 64, 8
	pool := analysis.NewPool(slots)
	held := make(chan struct{})
	release := make(chan struct{})
	for range slots {
		go pool.Do(func() {
			held <- struct{}{}
			<-release
		})
	}
	for range slots {
		<-held
	}

	open := mustOpen(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: behav.NewFactory(behav.DefaultParams()),
			Open:    open, Float: open.Floats[0],
			SOS:   fp.NewSOS(fp.Init1, fp.R(1)),
			RDefs: numeric.Logspace(1e3, 1e7, side), Us: numeric.Linspace(0, 3.3, side),
			Ctx: ctx, Pool: pool,
		})
		done <- err
	}()
	rise := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		rise = max(rise, runtime.NumGoroutine()-before)
	}
	// Cancel before the slots free, so the waiting points give up
	// instead of simulating the whole plane.
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	if limit := slots + slack; rise > limit {
		t.Errorf("a %d×%d dense sweep waiting on a full pool of %d raised the goroutine count by %d, more than %d", side, side, slots, rise, limit)
	}
}

// TestForEach checks ForEach's contract directly: at most workers calls
// of f run at once, every index runs once, the lowest-index error wins
// whichever task failed first, tasks that start after cancellation
// return the context error without calling f, and the edge cases n = 0,
// workers > n and workers = 1 (index order; workers = 0 counts as 1)
// hold.
func TestForEach(t *testing.T) {
	guard := func() <-chan time.Time { return time.After(30 * time.Second) }

	t.Run("bound and once", func(t *testing.T) {
		const n, workers = 64, 3
		var inside, peak atomic.Int32
		full := make(chan struct{})
		var fullOnce sync.Once
		timeout := guard()
		runs := make([]atomic.Int32, n)
		err := analysis.ForEach(context.Background(), n, workers, func(k int) error {
			runs[k].Add(1)
			now := inside.Add(1)
			defer inside.Add(-1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			if now == workers {
				fullOnce.Do(func() { close(full) })
			}
			// The first tasks wait until every worker is inside, so the
			// peak shows the bound is reached, and then stay inside a
			// while, so a loop running more calls at once would enter f
			// meanwhile and raise the peak past the bound.
			if k < workers {
				select {
				case <-full:
				case <-timeout:
					return errors.New("stall guard: the workers never ran at once")
				}
				time.Sleep(20 * time.Millisecond)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p != workers {
			t.Errorf("peak %d calls at once, want %d", p, workers)
		}
		for k := range runs {
			if c := runs[k].Load(); c != 1 {
				t.Errorf("index %d ran %d times", k, c)
			}
		}
	})

	t.Run("lowest index error", func(t *testing.T) {
		errLow, errHigh := errors.New("index 0"), errors.New("index 1")
		highFailed := make(chan struct{})
		timeout := guard()
		err := analysis.ForEach(nil, 2, 2, func(k int) error {
			if k == 1 {
				close(highFailed)
				return errHigh
			}
			select {
			case <-highFailed:
				return errLow
			case <-timeout:
				return errors.New("stall guard: index 1 never ran beside index 0")
			}
		})
		if err != errLow {
			t.Fatalf("got %v, want the lowest index's error %v", err, errLow)
		}
	})

	t.Run("cancellation", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var called []int
		err := analysis.ForEach(ctx, 5, 1, func(k int) error {
			called = append(called, k)
			if k == 1 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) || !slices.Equal(called, []int{0, 1}) {
			t.Fatalf("cancelled after index 1: called %v, err %v", called, err)
		}
		called = nil
		if err := analysis.ForEach(ctx, 3, 2, func(k int) error {
			called = append(called, k)
			return nil
		}); !errors.Is(err, context.Canceled) || called != nil {
			t.Fatalf("cancelled before the call: called %v, err %v", called, err)
		}
	})

	t.Run("edges", func(t *testing.T) {
		calls := 0
		if err := analysis.ForEach(nil, 0, 4, func(int) error {
			calls++
			return nil
		}); err != nil || calls != 0 {
			t.Fatalf("n = 0: %d calls, err %v", calls, err)
		}
		var mu sync.Mutex
		var seen []int
		if err := analysis.ForEach(nil, 3, 10, func(k int) error {
			mu.Lock()
			defer mu.Unlock()
			seen = append(seen, k)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		slices.Sort(seen)
		if !slices.Equal(seen, []int{0, 1, 2}) {
			t.Fatalf("workers > n ran %v", seen)
		}
		for _, workers := range []int{1, 0} {
			var order []int
			if err := analysis.ForEach(nil, 6, workers, func(k int) error {
				order = append(order, k)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(order, []int{0, 1, 2, 3, 4, 5}) {
				t.Fatalf("%d workers ran %v, want index order on one", workers, order)
			}
		}
	})
}
