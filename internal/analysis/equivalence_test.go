// Equivalence and regression tests for the performance layer. They live
// in an external test package so they can exercise both factories —
// behav imports analysis, so the in-package tests cannot import behav.
package analysis_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/numeric"
)

func mustOpen(t *testing.T, id int) defect.Open {
	t.Helper()
	o, ok := defect.ByID(id)
	if !ok {
		t.Fatalf("Open %d missing", id)
	}
	return o
}

// TestSweepPlaneFailingFactoryReturnsError is the regression test for
// the error-path deadlock: the old worker-pool sweep had workers return
// on error while the producer kept blocking on an unbuffered job
// channel. Every point failing — more points than pool slots — must
// still terminate and surface the dense oracle's error: the factory
// error at the first point in grid order.
func TestSweepPlaneFailingFactoryReturnsError(t *testing.T) {
	boom := errors.New("boom")
	failing := analysis.Factory(func(defect.Open, float64) (analysis.Memory, error) {
		return nil, boom
	})
	sweep := func(run func(analysis.SweepConfig) (*analysis.Plane, error)) error {
		done := make(chan error, 1)
		go func() {
			_, err := run(analysis.SweepConfig{
				Factory: failing,
				Open:    mustOpen(t, 4),
				Float:   mustOpen(t, 4).Floats[0],
				SOS:     fp.NewSOS(fp.Init1, fp.R(1)),
				RDefs:   numeric.Logspace(1e3, 1e7, 6),
				Us:      numeric.Linspace(0, 3.3, 6),
				// Fewer slots than failing points: the old code deadlocked here.
				Pool: analysis.NewPool(2),
			})
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("sweep deadlocked on an always-failing factory")
			return nil
		}
	}
	want := sweep(analysis.DenseSweep)
	if !errors.Is(want, boom) {
		t.Fatalf("dense oracle: want the factory error, got %v", want)
	}
	for trial := 0; trial < 4; trial++ {
		err := sweep(analysis.SweepPlane)
		if !errors.Is(err, boom) {
			t.Fatalf("want the factory error, got %v", err)
		}
		if err.Error() != want.Error() {
			t.Fatalf("SweepPlane error %q, dense oracle %q", err, want)
		}
	}
}

// sweepBoth runs the same sweep twice — once naively (the dense oracle,
// fresh build per point, no caches) and once through production
// SweepPlane with the full performance layer (pool, replay or pooled
// factory) — and requires bit-for-bit identical planes. Outcomes feed
// golden tables, so "close" is not enough.
func sweepBoth(t *testing.T, naive, fast analysis.Factory, open defect.Open, soses []fp.SOS, rdefs, us []float64) {
	t.Helper()
	group := open.Floats[0]
	pool := analysis.NewPool(4)
	replay := analysis.NewReplayCache(fast, open, group.Nets)
	defer replay.Close()
	for _, sos := range soses {
		plain, err := analysis.DenseSweep(analysis.SweepConfig{
			Factory: naive, Open: open, Float: group, SOS: sos,
			RDefs: rdefs, Us: us,
		})
		if err != nil {
			t.Fatalf("naive sweep %q: %v", sos, err)
		}
		cached, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: fast, Open: open, Float: group, SOS: sos,
			RDefs: rdefs, Us: us,
			Replay: replay, Pool: pool,
		})
		if err != nil {
			t.Fatalf("cached sweep %q: %v", sos, err)
		}
		if !reflect.DeepEqual(plain.Points, cached.Points) {
			t.Fatalf("sweep %q: pooled/replayed plane differs from fresh-build plane\nnaive:  %+v\ncached: %+v", sos, plain.Points, cached.Points)
		}
		// A second cached pass must be served entirely from the replay
		// tree — no new simulated step — and stay identical.
		simBefore, _ := replay.Stats()
		again, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: fast, Open: open, Float: group, SOS: sos,
			RDefs: rdefs, Us: us,
			Replay: replay, Pool: pool,
		})
		if err != nil {
			t.Fatalf("replayed sweep %q: %v", sos, err)
		}
		if !reflect.DeepEqual(plain.Points, again.Points) {
			t.Fatalf("sweep %q: replayed re-sweep differs from fresh-build plane", sos)
		}
		if sim, _ := replay.Stats(); sim != simBefore {
			t.Fatalf("sweep %q: re-sweep simulated %d new steps; it must be served from the replay tree", sos, sim-simBefore)
		}
	}
	if _, replayed := replay.Stats(); replayed == 0 {
		t.Fatal("replay cache served no steps; the sweeps did not exercise the prefix tree")
	}
}

// TestSweepEquivalenceBehav proves the caches change nothing for the
// analytical model: realistic Figure 3 grid, read and write SOSes.
func TestSweepEquivalenceBehav(t *testing.T) {
	factory := behav.NewFactory(behav.DefaultParams())
	sweepBoth(t, factory, factory, mustOpen(t, 4),
		[]fp.SOS{
			fp.NewSOS(fp.Init1, fp.R(1)),
			fp.NewSOS(fp.Init0, fp.W(1)),
			fp.NewSOS(fp.Init1),
		},
		numeric.Logspace(1e4, 1e8, 6),
		numeric.Linspace(0, 4.6, 5),
	)
}

// TestSweepEquivalenceSpice proves the same for the electrical column,
// additionally crossing factories: the naive side builds every column
// from scratch while the fast side recycles pooled columns through
// Reset and serves prefixes from the replay tree.
func TestSweepEquivalenceSpice(t *testing.T) {
	if testing.Short() {
		t.Skip("transient sweeps are slow; run without -short")
	}
	tech := dram.Default()
	sweepBoth(t, analysis.NewSpiceFactory(tech), analysis.NewPooledSpiceFactory(tech), mustOpen(t, 4),
		// The state-fault SOS shares its setup prefix with 1r1, so the
		// second sweep exercises the replay tree.
		[]fp.SOS{fp.NewSOS(fp.Init1, fp.R(1)), fp.NewSOS(fp.Init1)},
		numeric.Logspace(1e4, 1e7, 3),
		numeric.Linspace(0, 3.3, 3),
	)
}
