// Differential suite for the adaptive boundary-tracing sweep: traced
// planes must be bit-identical to dense planes across the whole defect
// catalog, on both factories, while issuing strictly fewer engine
// calls. Lives in the external test package so it can exercise behav
// (which imports analysis) alongside the electrical column.
package analysis_test

import (
	"reflect"
	"sync"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/numeric"
)

// countingFactory wraps a Factory and counts how many memories it
// built — with no replay cache in play, that is exactly
// the number of transient simulations a sweep issued.
type countingFactory struct {
	mu sync.Mutex
	n  int
}

func (c *countingFactory) wrap(f analysis.Factory) analysis.Factory {
	return func(o defect.Open, r float64) (analysis.Memory, error) {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
		return f(o, r)
	}
}

func (c *countingFactory) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// comparePlanes asserts traced and dense agree on every point's FFM
// classification (in fact on the full Point, which subsumes it) and on
// the derived FaultyFraction / MinRDefWithFFM / RowFFM readings.
func comparePlanes(t *testing.T, label string, traced, dense *analysis.Plane) {
	t.Helper()
	for i := range dense.Points {
		for j := range dense.Points[i] {
			dp, tp := dense.Points[i][j], traced.Points[i][j]
			if dp.Faulty != tp.Faulty || dp.FFM != tp.FFM {
				t.Errorf("%s: point (%.3g,%.3g): traced %v/%v, dense %v/%v",
					label, dense.RDefs[i], dense.Us[j], tp.Faulty, tp.FFM, dp.Faulty, dp.FFM)
			}
		}
	}
	if !reflect.DeepEqual(traced.Points, dense.Points) {
		t.Errorf("%s: traced plane is not bit-identical to dense plane", label)
	}
	if tf, df := traced.FaultyFraction(), dense.FaultyFraction(); tf != df {
		t.Errorf("%s: FaultyFraction traced %v != dense %v", label, tf, df)
	}
	ffms := append(dense.FFMs(), fp.FFMUnknown)
	for _, f := range ffms {
		for uIdx := range dense.Us {
			tr, tok := traced.MinRDefWithFFM(f, uIdx)
			dr, dok := dense.MinRDefWithFFM(f, uIdx)
			if tr != dr || tok != dok {
				t.Errorf("%s: MinRDefWithFFM(%v,%d) traced (%v,%v) != dense (%v,%v)",
					label, f, uIdx, tr, tok, dr, dok)
			}
		}
		for i := range dense.RDefs {
			tc, tt := traced.RowFFM(i, f)
			dc, dt := dense.RowFFM(i, f)
			if tc != dc || tt != dt {
				t.Errorf("%s: RowFFM(%d,%v) traced (%d,%d) != dense (%d,%d)",
					label, i, f, tc, tt, dc, dt)
			}
		}
	}
}

// diffOne sweeps one (open, SOS, grid) three ways with independent
// counting factories: the dense oracle, production SweepPlane and the
// traced sweep. SweepPlane must equal the oracle bit for bit and
// simulate every point; the traced plane must match the oracle. It
// returns the traced and the dense engine-call counts.
func diffOne(t *testing.T, factory analysis.Factory, open defect.Open, sos fp.SOS, rdefs, us []float64, label string) (tracedCalls, denseCalls int) {
	t.Helper()
	sweep := func(c *countingFactory) analysis.SweepConfig {
		return analysis.SweepConfig{
			Factory: c.wrap(factory), Open: open, Float: open.Floats[0], SOS: sos,
			RDefs: rdefs, Us: us, Pool: analysis.NewPool(4),
		}
	}
	var cd, cs, ct countingFactory
	dense, err := analysis.DenseSweep(sweep(&cd))
	if err != nil {
		t.Fatalf("%s: dense: %v", label, err)
	}
	swept, err := analysis.SweepPlane(sweep(&cs))
	if err != nil {
		t.Fatalf("%s: SweepPlane: %v", label, err)
	}
	if !reflect.DeepEqual(swept, dense) {
		t.Errorf("%s: SweepPlane is not bit-identical to the dense oracle", label)
	}
	if cs.count() != len(rdefs)*len(us) {
		t.Errorf("%s: SweepPlane built %d memories, grid has %d points", label, cs.count(), len(rdefs)*len(us))
	}
	traced, stats, err := analysis.TracePlane(analysis.TraceConfig{SweepConfig: sweep(&ct)})
	if err != nil {
		t.Fatalf("%s: traced: %v", label, err)
	}
	comparePlanes(t, label, traced, dense)
	if ct.count() != stats.Simulated() {
		t.Errorf("%s: factory built %d memories but stats claim %d simulations",
			label, ct.count(), stats.Simulated())
	}
	if stats.Points() != len(rdefs)*len(us) {
		t.Errorf("%s: stats cover %d points, grid has %d", label, stats.Points(), len(rdefs)*len(us))
	}
	return ct.count(), cd.count()
}

// seedGrid is the catalog's seed sweep resolution (13 log-spaced
// resistances × 12 linear voltages — the service defaults).
func seedGrid() ([]float64, []float64) {
	return numeric.Logspace(1e3, 1e7, 13), numeric.Linspace(0, 3.3, 12)
}

// TestTracePlaneMatchesDense is the tentpole differential suite: every
// simulated catalog open, the full static SOS set at seed resolution plus
// a finer grid, behav factory. Every traced plane must match its dense
// counterpart bit for bit with strictly fewer engine calls, and the
// aggregate reduction across the catalog must meet the ≥5× target.
func TestTracePlaneMatchesDense(t *testing.T) {
	factory := behav.NewFactory(behav.DefaultParams())
	rdefs, us := seedGrid()
	fineR := numeric.Logspace(1e3, 1e7, 25)
	fineU := numeric.Linspace(0, 3.3, 23)

	totTraced, totDense := 0, 0
	for _, open := range defect.SimulatedOpens() {
		openTraced, openDense := 0, 0
		for _, sos := range analysis.StaticSOSes() {
			label := open.Name() + "/" + sos.String()
			tc, dc := diffOne(t, factory, open, sos, rdefs, us, label)
			if tc >= dc {
				t.Errorf("%s: traced issued %d engine calls, dense %d — not strictly fewer", label, tc, dc)
			}
			openTraced += tc
			openDense += dc
		}
		t.Logf("open %d (%s): seed grid %d traced vs %d dense calls (%.1fx)",
			open.ID, open.Name(), openTraced, openDense, float64(openDense)/float64(openTraced))
		totTraced += openTraced
		totDense += openDense

		// Finer grid: one read and one write SOS per open keeps the
		// suite fast while still crossing every open's region layout.
		for _, sos := range []fp.SOS{fp.NewSOS(fp.Init1, fp.R(1)), fp.NewSOS(fp.Init0, fp.W(1))} {
			label := open.Name() + "/fine/" + sos.String()
			tc, dc := diffOne(t, factory, open, sos, fineR, fineU, label)
			if tc >= dc {
				t.Errorf("%s: traced issued %d engine calls, dense %d — not strictly fewer", label, tc, dc)
			}
		}
	}
	reduction := float64(totDense) / float64(totTraced)
	t.Logf("catalog aggregate at seed resolution: %d traced vs %d dense calls (%.2fx fewer)",
		totTraced, totDense, reduction)
	if reduction < 5 {
		t.Errorf("aggregate simulation reduction %.2fx at seed resolution, want >= 5x", reduction)
	}
}

// TestTracePlaneMatchesDenseSpice repeats the differential check on
// the electrical column for every simulated open at two (small) resolutions.
func TestTracePlaneMatchesDenseSpice(t *testing.T) {
	if testing.Short() {
		t.Skip("transient sweeps are slow; run without -short")
	}
	factory := analysis.NewPooledSpiceFactory(dram.Default())
	sos := fp.NewSOS(fp.Init1, fp.R(1))
	grids := [][2][]float64{
		{numeric.Logspace(1e3, 1e7, 7), numeric.Linspace(0, 3.3, 6)},
		{numeric.Logspace(1e4, 1e6, 5), numeric.Linspace(0, 3.3, 9)},
	}
	for _, open := range defect.SimulatedOpens() {
		for gi, g := range grids {
			label := open.Name() + "/spice/" + sos.String()
			tc, dc := diffOne(t, factory, open, sos, g[0], g[1], label)
			if tc >= dc {
				t.Errorf("%s grid %d: traced issued %d engine calls, dense %d — not strictly fewer",
					label, gi, tc, dc)
			}
		}
	}
}

// TestTraceInventoryMatchesDense closes the loop at the pipeline
// level: BuildInventory in traced mode must produce the identical
// Table 1 rows, with the trace counters accounting for every sweep.
func TestTraceInventoryMatchesDense(t *testing.T) {
	factory := behav.NewFactory(behav.DefaultParams())
	rdefs, us := seedGrid()
	base := analysis.InventoryConfig{
		Factory: factory,
		RDefs:   rdefs, Us: us,
		Parallelism: 4,
	}
	dense, err := analysis.BuildInventory(base)
	if err != nil {
		t.Fatalf("dense inventory: %v", err)
	}
	var counters analysis.TraceCounters
	cfgTraced := base
	cfgTraced.Sweep = analysis.SweepTraced
	cfgTraced.Trace = &counters
	traced, err := analysis.BuildInventory(cfgTraced)
	if err != nil {
		t.Fatalf("traced inventory: %v", err)
	}
	if !reflect.DeepEqual(dense, traced) {
		t.Errorf("traced inventory rows differ from dense rows")
	}
	stats, planes := counters.Snapshot()
	if planes == 0 || stats.Inferred == 0 {
		t.Fatalf("traced inventory recorded no trace work: %+v over %d planes", stats, planes)
	}
	t.Logf("inventory traced %d planes: %d simulated, %d inferred (%.2fx fewer pipeline evaluations)",
		planes, stats.Simulated(), stats.Inferred, stats.Reduction())
}
