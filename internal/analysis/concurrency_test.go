package analysis_test

// Deterministic concurrency hammer for the shared cache of the
// performance layer, the snapshot ReplayCache. Eight goroutines drive
// the full (R_def, U, SOS) cross product through one cache
// simultaneously, each in a different rotation of the same work list,
// so every tree is contended by every worker. Correctness is checked
// against a serial cache-free reference bit for bit; run under -race
// (CI does) this also proves the locking discipline.

import (
	"sync"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

func TestReplayConcurrentHammer(t *testing.T) {
	open, ok := defect.ByID(4)
	if !ok {
		t.Fatal("open 4 missing")
	}
	nets := open.Floats[0].Nets
	factory := behav.NewFactory(behav.DefaultParams())

	soses := []fp.SOS{
		fp.NewSOS(fp.Init0),
		fp.NewSOS(fp.Init1),
		fp.NewSOS(fp.Init1, fp.R(1)),
		fp.NewSOS(fp.Init0, fp.W(1)),
		fp.NewSOS(fp.Init1, fp.W(0), fp.R(0)),
	}
	rdefs := []float64{1e3, 1e5, 1e7}
	us := []float64{0, 1.65, 3.3}

	type job struct {
		rdef, u float64
		sos     fp.SOS
	}
	var jobs []job
	for _, r := range rdefs {
		for _, u := range us {
			for _, s := range soses {
				jobs = append(jobs, job{r, u, s})
			}
		}
	}

	// Serial, cache-free reference.
	want := make([]analysis.Outcome, len(jobs))
	for i, j := range jobs {
		out, err := analysis.RunSOS(factory, open, j.rdef, nets, j.u, j.sos)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	rc := analysis.NewReplayCache(factory, open, nets)
	defer rc.Close()

	const workers = 8
	const rounds = 3
	got := make([][]analysis.Outcome, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		got[w] = make([]analysis.Outcome, len(jobs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for k := range jobs {
					// Rotate the order per worker so goroutines contend
					// on different jobs at any instant but all jobs overall.
					i := (k + w*len(jobs)/workers) % len(jobs)
					j := jobs[i]
					out, err := rc.Run(j.rdef, j.u, j.sos)
					if err != nil {
						errs[w] = err
						return
					}
					got[w][i] = out
				}
			}
		}()
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range jobs {
			if got[w][i] != want[i] {
				t.Errorf("worker %d job %d (rdef=%.3g u=%.3g %q): got %+v, want %+v",
					w, i, jobs[i].rdef, jobs[i].u, jobs[i].sos, got[w][i], want[i])
			}
		}
	}

	// The tree simulates each distinct protocol step exactly once, as a
	// serial pass over the jobs does — concurrent walks of the same edge
	// are never duplicated — and serves every repeat.
	serial := analysis.NewReplayCache(factory, open, nets)
	defer serial.Close()
	for _, j := range jobs {
		if _, err := serial.Run(j.rdef, j.u, j.sos); err != nil {
			t.Fatal(err)
		}
	}
	wantSim, _ := serial.Stats()
	if sim, replayed := rc.Stats(); sim != wantSim || replayed == 0 {
		t.Errorf("replay cache simulated %d steps (serial pass: %d) and replayed %d", sim, wantSim, replayed)
	}
}
