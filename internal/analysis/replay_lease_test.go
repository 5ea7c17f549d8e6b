package analysis_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

// TestReplaySetupsOverlap: two evaluations at one resistance whose setup
// edges differ share no simulated step, so they must run at once. Every
// memory the factory builds holds each simulation at a barrier until two
// simulations at the resistance are inside it; if the evaluations
// serialize, the stall guard fires.
func TestReplaySetupsOverlap(t *testing.T) {
	open := mustOpen(t, 4)
	nets := open.Floats[0].Nets
	const rdef = 1e5
	inner := behav.NewFactory(behav.DefaultParams())
	var (
		mu       sync.Mutex
		inside   int
		all      = make(chan struct{})
		abandon  = make(chan struct{})
		giveUpMu sync.Once
	)
	giveUp := func() { giveUpMu.Do(func() { close(abandon) }) }
	t.Cleanup(giveUp)
	factory := func(o defect.Open, r float64) (analysis.Memory, error) {
		m, err := inner(o, r)
		if err != nil {
			return nil, err
		}
		return hookMemory{Snapshotter: m.(analysis.Snapshotter), onSet: func(float64) {
			mu.Lock()
			if inside++; inside == 2 {
				close(all)
			}
			mu.Unlock()
			select {
			case <-all:
			case <-abandon:
			}
		}}, nil
	}
	rc := analysis.NewReplayCache(factory, open, nets)
	pool := analysis.NewPool(2)
	sos := fp.NewSOS(fp.Init1, fp.R(1))

	type result struct {
		u   float64
		out analysis.Outcome
		err error
	}
	us := []float64{0, 3.3}
	results := make(chan result, len(us))
	for _, u := range us {
		go func() {
			out, err := rc.Run(context.Background(), pool, rdef, u, sos)
			results <- result{u, out, err}
		}()
	}
	guard := time.After(30 * time.Second)
	stalled := false
	for range us {
		var r result
		select {
		case r = <-results:
		case <-guard:
			// Let the held simulation go, so the evaluations finish
			// before the cache is closed.
			stalled = true
			giveUp()
			r = <-results
		}
		if r.err != nil {
			t.Fatalf("U = %g: %v", r.u, r.err)
		}
		want, err := analysis.RunSOS(inner, open, rdef, nets, r.u, sos)
		if err != nil {
			t.Fatal(err)
		}
		if r.out != want {
			t.Errorf("U = %g: got %+v, RunSOS %+v", r.u, r.out, want)
		}
	}
	rc.Close()
	if stalled {
		t.Fatal("stall guard: two evaluations at one resistance with different setup edges did not run at once")
	}
}

// replayJob is one evaluation of a replay work list.
type replayJob struct {
	rdef, u float64
	sos     fp.SOS
}

// replayWork is TestReplayConcurrentHammer's work list: every (R_def, U,
// SOS) of three resistances, three voltages and five sequences on
// Open 4.
func replayWork() []replayJob {
	soses := []fp.SOS{
		fp.NewSOS(fp.Init0),
		fp.NewSOS(fp.Init1),
		fp.NewSOS(fp.Init1, fp.R(1)),
		fp.NewSOS(fp.Init0, fp.W(1)),
		fp.NewSOS(fp.Init1, fp.W(0), fp.R(0)),
	}
	var jobs []replayJob
	for _, r := range []float64{1e3, 1e5, 1e7} {
		for _, u := range []float64{0, 1.65, 3.3} {
			for _, s := range soses {
				jobs = append(jobs, replayJob{r, u, s})
			}
		}
	}
	return jobs
}

// TestReplayMemoryBudget: eight workers drive the hammer's work list
// three times through one cache. At one pool slot the cache builds
// exactly one memory per resistance, as a cache with one memory per
// resistance does; at three slots it never builds more than three at
// one resistance. At both, every outcome equals RunSOS's, every edge is
// simulated once, as in a serial pass, and the cache reports the
// memories the factory built.
func TestReplayMemoryBudget(t *testing.T) {
	open := mustOpen(t, 4)
	nets := open.Floats[0].Nets
	inner := behav.NewFactory(behav.DefaultParams())
	jobs := replayWork()
	want := make([]analysis.Outcome, len(jobs))
	serial := analysis.NewReplayCache(inner, open, nets)
	defer serial.Close()
	for i, j := range jobs {
		out, err := analysis.RunSOS(inner, open, j.rdef, nets, j.u, j.sos)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
		if _, err := serial.Run(context.Background(), nil, j.rdef, j.u, j.sos); err != nil {
			t.Fatal(err)
		}
	}
	wantSim, _ := serial.Stats()

	for _, slots := range []int{1, 3} {
		var mu sync.Mutex
		built := map[float64]int{}
		factory := func(o defect.Open, r float64) (analysis.Memory, error) {
			mu.Lock()
			built[r]++
			mu.Unlock()
			return inner(o, r)
		}
		rc := analysis.NewReplayCache(factory, open, nets)
		pool := analysis.NewPool(slots)
		const workers, rounds = 8, 3
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range rounds {
					for k := range jobs {
						i := (k + w*len(jobs)/workers) % len(jobs)
						j := jobs[i]
						out, err := rc.Run(context.Background(), pool, j.rdef, j.u, j.sos)
						if err == nil && out != want[i] {
							err = errors.New("outcome differs from RunSOS")
						}
						if err != nil {
							errs[w] = err
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		rc.Close()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("%d slots, worker %d: %v", slots, w, err)
			}
		}
		total := 0
		for r, n := range built {
			total += n
			if (slots == 1 && n != 1) || n > slots {
				t.Errorf("%d slots: built %d memories at %.3g Ω", slots, n, r)
			}
		}
		if got := rc.MemoriesBuilt(); got != uint64(total) {
			t.Errorf("%d slots: the cache reports %d memories built, the factory built %d", slots, got, total)
		}
		if sim, _ := rc.Stats(); sim != wantSim {
			t.Errorf("%d slots: simulated %d steps, a serial pass %d", slots, sim, wantSim)
		}
	}
}

// flakyMemory fails the first Write that any memory of its factory
// makes, after the write has moved the memory's state, and counts
// restores.
type flakyMemory struct {
	analysis.Snapshotter
	failed   *atomic.Bool
	restores *atomic.Int64
}

var errFlakyWrite = errors.New("injected write failure")

func (m flakyMemory) Write(cell, bit int) error {
	if err := m.Snapshotter.Write(cell, bit); err != nil {
		return err
	}
	if m.failed.CompareAndSwap(false, true) {
		return errFlakyWrite
	}
	return nil
}

func (m flakyMemory) Restore(state any) {
	m.restores.Add(1)
	m.Snapshotter.Restore(state)
}

// TestReplayFailedMemoryRestores: a memory whose operation fails goes
// back to its resistance at no node, and is leased again. 0w1 fails on
// its write after the write moved the victim to 1; 0r0 at the same point
// then reads from the precharge node the two share, and must restore it
// before it simulates and equal RunSOS bit for bit.
func TestReplayFailedMemoryRestores(t *testing.T) {
	open := mustOpen(t, 4)
	nets := open.Floats[0].Nets
	const rdef, u = 1e4, 0
	inner := behav.NewFactory(behav.DefaultParams())
	var failed atomic.Bool
	var restores atomic.Int64
	factory := func(o defect.Open, r float64) (analysis.Memory, error) {
		m, err := inner(o, r)
		if err != nil {
			return nil, err
		}
		return flakyMemory{Snapshotter: m.(analysis.Snapshotter), failed: &failed, restores: &restores}, nil
	}
	rc := analysis.NewReplayCache(factory, open, nets)
	defer rc.Close()
	pool := analysis.NewPool(1)

	if _, err := rc.Run(context.Background(), pool, rdef, u, fp.NewSOS(fp.Init0, fp.W(1))); !errors.Is(err, errFlakyWrite) {
		t.Fatalf("0w1 returned %v, want the injected failure", err)
	}
	before := restores.Load()
	sos := fp.NewSOS(fp.Init0, fp.R(0))
	got, err := rc.Run(context.Background(), pool, rdef, u, sos)
	if err != nil {
		t.Fatal(err)
	}
	want, err := analysis.RunSOS(inner, open, rdef, nets, u, sos)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("0r0 after the failed write: got %+v, RunSOS %+v", got, want)
	}
	if restores.Load() == before {
		t.Error("0r0 simulated on the failed memory without restoring it")
	}
	if n := rc.MemoriesBuilt(); n != 1 {
		t.Errorf("built %d memories; the failed one should have gone back to its resistance", n)
	}
}
