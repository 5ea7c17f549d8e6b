package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

// The synthetic-field harness drives the tracer with a fake Factory
// over a [][]uint8 verdict field instead of a circuit simulator: row =
// int(rdef), column = int(u), and the stored value v ∈ {0,1,2,3} maps
// to Outcome{F: v&1, R: ReadResultOf(v>>1)} under fieldSOS (1r1), so
// all four values are pairwise-distinct region labels and v=3 is the
// fault-free one. This isolates the tracing geometry — seeding,
// bisection, cell refinement, flood inference — from the electrical
// model, and lets tests plant adversarial region shapes directly.

func fieldSOS() fp.SOS { return fp.NewSOS(fp.Init1, fp.R(1)) }

// fieldRecorder logs which grid points a fieldFactory simulated.
type fieldRecorder struct {
	mu    sync.Mutex
	calls int
	seen  map[[2]int]bool
}

func newFieldRecorder() *fieldRecorder {
	return &fieldRecorder{seen: map[[2]int]bool{}}
}

func (r *fieldRecorder) record(row, col int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	r.seen[[2]int{row, col}] = true
}

// stats returns total simulations and the set of distinct points hit.
func (r *fieldRecorder) stats() (calls int, seen map[[2]int]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen = make(map[[2]int]bool, len(r.seen))
	for k, v := range r.seen {
		seen[k] = v
	}
	return r.calls, seen
}

type fieldMemory struct {
	field [][]uint8
	rec   *fieldRecorder
	row   int
	col   int
}

func (m *fieldMemory) value() uint8 { return m.field[m.row][m.col] }

func (m *fieldMemory) Write(cell, bit int) error { return nil }
func (m *fieldMemory) Read(cell int) (int, error) {
	return int(m.value()>>1) & 1, nil
}
func (m *fieldMemory) Idle() error         { return nil }
func (m *fieldMemory) ForceVictim(bit int) {}
func (m *fieldMemory) SetFloat(nets []string, u float64) {
	m.col = int(u + 0.5)
	if m.rec != nil {
		m.rec.record(m.row, m.col)
	}
}
func (m *fieldMemory) VictimBit() int { return int(m.value()) & 1 }

// fieldFactory returns a Factory reading verdicts straight from field.
func fieldFactory(field [][]uint8, rec *fieldRecorder) Factory {
	return func(open defect.Open, rdef float64) (Memory, error) {
		return &fieldMemory{field: field, rec: rec, row: int(rdef + 0.5)}, nil
	}
}

func fieldAxes(field [][]uint8) (rdefs, us []float64) {
	rdefs = make([]float64, len(field))
	for i := range rdefs {
		rdefs[i] = float64(i)
	}
	us = make([]float64, len(field[0]))
	for j := range us {
		us[j] = float64(j)
	}
	return rdefs, us
}

func fieldSweepConfig(field [][]uint8, rec *fieldRecorder) SweepConfig {
	rdefs, us := fieldAxes(field)
	return SweepConfig{
		Factory: fieldFactory(field, rec),
		SOS:     fieldSOS(),
		RDefs:   rdefs,
		Us:      us,
		Pool:    NewPool(4),
	}
}

// traceField runs TracePlane over the synthetic field.
func traceField(t testing.TB, field [][]uint8, stride int, rec *fieldRecorder) (*Plane, TraceStats) {
	t.Helper()
	p, stats, err := TracePlane(TraceConfig{SweepConfig: fieldSweepConfig(field, rec), Stride: stride})
	if err != nil {
		t.Fatalf("TracePlane: %v", err)
	}
	return p, stats
}

// denseField runs the dense oracle over the synthetic field.
func denseField(t testing.TB, field [][]uint8) *Plane {
	t.Helper()
	p, err := DenseSweep(fieldSweepConfig(field, nil))
	if err != nil {
		t.Fatalf("DenseSweep: %v", err)
	}
	return p
}

func uniformField(nR, nU int, v uint8) [][]uint8 {
	f := make([][]uint8, nR)
	for i := range f {
		f[i] = make([]uint8, nU)
		for j := range f[i] {
			f[i][j] = v
		}
	}
	return f
}

// mismatches returns the grid positions where the planes disagree.
func mismatches(a, b *Plane) [][2]int {
	var out [][2]int
	for i := range a.Points {
		for j := range a.Points[i] {
			if !reflect.DeepEqual(a.Points[i][j], b.Points[i][j]) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// component returns the 4-connected same-value component of (i,j).
func component(field [][]uint8, i, j int) map[[2]int]bool {
	v := field[i][j]
	comp := map[[2]int]bool{{i, j}: true}
	stack := [][2]int{{i, j}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			q := [2]int{p[0] + d[0], p[1] + d[1]}
			if q[0] < 0 || q[0] >= len(field) || q[1] < 0 || q[1] >= len(field[0]) {
				continue
			}
			if !comp[q] && field[q[0]][q[1]] == v {
				comp[q] = true
				stack = append(stack, q)
			}
		}
	}
	return comp
}

// checkTraceInvariants asserts the tracer's exact guarantee against the
// dense oracle: (1) the trace resolves every point and its stats add
// up to the recorder's observations; (2) any point where traced and
// dense disagree belongs to a dense-plane region (4-connected
// same-outcome component) that the trace never sampled — the one
// documented blind spot. Everything else must be bit-identical.
func checkTraceInvariants(t *testing.T, field [][]uint8, stride int) (*Plane, *Plane, TraceStats) {
	t.Helper()
	rec := newFieldRecorder()
	traced, stats := traceField(t, field, stride, rec)
	dense := denseField(t, field)

	nR, nU := len(field), len(field[0])
	if got, want := stats.Points(), nR*nU; got != want {
		t.Errorf("stats.Points() = %d, want %d (grid %dx%d)", got, want, nR, nU)
	}
	calls, seen := rec.stats()
	if calls != len(seen) {
		t.Errorf("simulated %d times for %d distinct points: tracer re-simulated a known point", calls, len(seen))
	}
	if calls != stats.Simulated() {
		t.Errorf("recorder saw %d simulations, stats claim %d", calls, stats.Simulated())
	}

	for _, m := range mismatches(traced, dense) {
		comp := component(field, m[0], m[1])
		for p := range comp {
			if seen[p] {
				t.Errorf("traced[%d][%d] = %+v != dense %+v, but its region was sampled at (%d,%d): unsound inference",
					m[0], m[1], traced.Points[m[0]][m[1]], dense.Points[m[0]][m[1]], p[0], p[1])
				break
			}
		}
	}
	return traced, dense, stats
}

// requireExact asserts bit-identical traced-vs-dense reconstruction.
func requireExact(t *testing.T, field [][]uint8, stride int) TraceStats {
	t.Helper()
	traced, dense, stats := checkTraceInvariants(t, field, stride)
	if !reflect.DeepEqual(traced.Points, dense.Points) {
		t.Errorf("traced plane differs from dense (stride %d): %d mismatched points",
			stride, len(mismatches(traced, dense)))
	}
	return stats
}

func TestTraceFieldUniform(t *testing.T) {
	for _, v := range []uint8{0, 3} {
		field := uniformField(13, 12, v)
		stats := requireExact(t, field, 4)
		// A uniform field needs exactly the seed lattice: ceil(13/4)+0
		// rows {0,4,8,12} × cols {0,4,8,11}.
		if want := 4 * 4; stats.Simulated() != want {
			t.Errorf("uniform field: simulated %d points, want the %d seeds", stats.Simulated(), want)
		}
		if stats.Bisected != 0 || stats.Refined != 0 {
			t.Errorf("uniform field: unexpected bisection/refinement: %+v", stats)
		}
	}
}

func TestTraceFieldHalfPlanes(t *testing.T) {
	// Vertical, horizontal and rectangular splits at every cut
	// position, including cuts inside a coarse cell.
	for cut := 1; cut < 12; cut++ {
		field := uniformField(13, 12, 3)
		for i := range field {
			for j := cut; j < 12; j++ {
				field[i][j] = 1
			}
		}
		requireExact(t, field, 4)

		field = uniformField(13, 12, 3)
		for i := cut; i < 13; i++ {
			for j := range field[i] {
				field[i][j] = 2
			}
		}
		requireExact(t, field, 4)
	}
}

func TestTraceFieldRectangles(t *testing.T) {
	// Axis-aligned rectangles spanning at least (stride+1) points per
	// axis always contain a seed, so reconstruction must be exact.
	const stride = 4
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nR, nU := 10+rng.Intn(10), 10+rng.Intn(10)
		field := uniformField(nR, nU, 3)
		h := stride + 1 + rng.Intn(nR-stride-1)
		w := stride + 1 + rng.Intn(nU-stride-1)
		i0, j0 := rng.Intn(nR-h+1), rng.Intn(nU-w+1)
		for i := i0; i < i0+h; i++ {
			for j := j0; j < j0+w; j++ {
				field[i][j] = uint8(trial % 3)
			}
		}
		requireExact(t, field, stride)
	}
}

func TestTraceFieldMonotone(t *testing.T) {
	// Monotone threshold fields (each row faulty from a column
	// threshold on, thresholds non-decreasing) model the paper's
	// region maps: both the faulty and fault-free regions are
	// connected and touch opposite grid corners, which are always
	// seeded, so reconstruction must be exact at any stride.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		nR, nU := 5+rng.Intn(20), 5+rng.Intn(20)
		field := uniformField(nR, nU, 3)
		thresh := rng.Intn(nU + 1)
		for i := 0; i < nR; i++ {
			if up := rng.Intn(3); thresh+up <= nU {
				thresh += up
			}
			for j := thresh; j < nU; j++ {
				field[i][j] = 1
			}
		}
		for _, stride := range []int{2, 4, 7} {
			requireExact(t, field, stride)
		}
	}
}

func TestTraceFieldConnectedDiagonalStrip(t *testing.T) {
	// A two-point-wide diagonal staircase is 4-connected and touches
	// the (0,0) seed, so even though it is everywhere thinner than the
	// stride the refinement fallback must chase it across the whole
	// grid and reconstruct it exactly.
	n := 17
	field := uniformField(n, n, 3)
	for i := 0; i < n; i++ {
		field[i][i] = 1
		if i+1 < n {
			field[i][i+1] = 1
		}
	}
	stats := requireExact(t, field, 4)
	if stats.Refined == 0 {
		t.Errorf("diagonal strip: expected cell refinement, got %+v", stats)
	}
}

func TestTraceFieldIslandBlindSpotAndFallback(t *testing.T) {
	// A single-point island strictly inside a coarse cell is the
	// documented blind spot: no sample can see it, so the trace fills
	// over it — but never in a way that violates the region-sampling
	// invariant — and Stride=1 (the dense fallback) must find it.
	field := uniformField(13, 12, 3)
	field[2][2] = 0

	traced, dense, _ := checkTraceInvariants(t, field, 4)
	if len(mismatches(traced, dense)) != 1 {
		t.Errorf("off-lattice island: want exactly the island point missed, got %d mismatches",
			len(mismatches(traced, dense)))
	}
	requireExact(t, field, 1) // Stride=1 degenerates to dense: island found

	// The same island sitting on a lattice point is always found.
	field = uniformField(13, 12, 3)
	field[4][8] = 0
	requireExact(t, field, 4)

	// A sub-stride strip whose component touches a seed is found
	// through the refinement cascade: the seed (0,4) disagrees with
	// its lattice neighbors, and the fixpoint keeps subdividing the
	// surrounding cells until the whole strip is individually
	// simulated.
	field = uniformField(13, 12, 3)
	for i := 0; i <= 2; i++ {
		field[i][4] = 1
	}
	requireExact(t, field, 4)

	// The same strip one column over touches no sample (its row-0
	// neighbors (0,0)/(0,4) agree, so no bisection ever lands on it):
	// a documented blind spot, recovered by Stride=1.
	field = uniformField(13, 12, 3)
	for i := 0; i <= 2; i++ {
		field[i][2] = 1
	}
	traced, dense, _ = checkTraceInvariants(t, field, 4)
	if len(mismatches(traced, dense)) != 3 {
		t.Errorf("off-sample strip: want 3 missed points, got %d", len(mismatches(traced, dense)))
	}
	requireExact(t, field, 1)
}

func TestTraceFieldSubStrideRegions(t *testing.T) {
	// Regions smaller than the seed stride in both extents: found
	// exactly when any sample lands in them, filled over (blind spot)
	// when none does — checkTraceInvariants encodes precisely that
	// dichotomy, so sweeping many placements exercises both paths.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 80; trial++ {
		nR, nU := 9+rng.Intn(8), 9+rng.Intn(8)
		field := uniformField(nR, nU, 3)
		h, w := 1+rng.Intn(3), 1+rng.Intn(3)
		i0, j0 := rng.Intn(nR-h+1), rng.Intn(nU-w+1)
		for i := i0; i < i0+h; i++ {
			for j := j0; j < j0+w; j++ {
				field[i][j] = uint8(rng.Intn(3))
			}
		}
		checkTraceInvariants(t, field, 4)
	}
}

func TestTraceFieldStrideOneIsDense(t *testing.T) {
	// Stride=1, the stride SweepPlane runs, must simulate every point
	// (Simulated() == Points(), nothing inferred) and match the dense
	// oracle on arbitrary fields.
	rng := rand.New(rand.NewSource(4))
	field := uniformField(7, 9, 0)
	for i := range field {
		for j := range field[i] {
			field[i][j] = uint8(rng.Intn(4))
		}
	}
	stats := requireExact(t, field, 1)
	if stats.Inferred != 0 {
		t.Errorf("stride 1: inferred %d points, want 0", stats.Inferred)
	}
	if stats.Simulated() != 7*9 {
		t.Errorf("stride 1: simulated %d points, want all %d", stats.Simulated(), 7*9)
	}
}

func TestTraceFieldSingleRowAndColumn(t *testing.T) {
	// Degenerate 1×n and n×1 grids exercise the degenerate-cell path.
	field := [][]uint8{{3, 3, 1, 1, 1, 3, 3, 3, 3, 3, 2}}
	requireExact(t, field, 4)

	tall := make([][]uint8, 11)
	for i := range tall {
		tall[i] = []uint8{field[0][i]}
	}
	requireExact(t, tall, 4)

	requireExact(t, [][]uint8{{2}}, 4)
}

// TestTraceFieldDeterminism races 8 concurrent traced sweeps of the
// same adversarial field and requires byte-identical planes and stats:
// batch-synchronous classification with sorted batches makes the trace
// independent of goroutine scheduling. Run with -race in CI.
func TestTraceFieldDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	field := uniformField(19, 17, 3)
	for i := range field {
		for j := range field[i] {
			if rng.Intn(3) == 0 {
				field[i][j] = uint8(rng.Intn(4))
			}
		}
	}
	type result struct {
		plane *Plane
		stats TraceStats
		err   error
	}
	results := make([]result, 8)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := fieldSweepConfig(field, nil)
			cfg.Pool = NewPool(8)
			p, s, err := TracePlane(TraceConfig{SweepConfig: cfg, Stride: 4})
			results[g] = result{p, s, err}
		}(g)
	}
	wg.Wait()
	for g, r := range results {
		if r.err != nil {
			t.Fatalf("goroutine %d: %v", g, r.err)
		}
		if !reflect.DeepEqual(r.plane.Points, results[0].plane.Points) {
			t.Errorf("goroutine %d produced a different plane than goroutine 0", g)
		}
		if r.stats != results[0].stats {
			t.Errorf("goroutine %d stats %+v differ from goroutine 0 %+v", g, r.stats, results[0].stats)
		}
	}
}

func TestTracePlaneEmptyGrid(t *testing.T) {
	_, _, err := TracePlane(TraceConfig{})
	if err == nil {
		t.Fatal("TracePlane on an empty grid: want error")
	}
}

func TestTracePlaneErrorIsFirstInGridOrder(t *testing.T) {
	// Every factory call fails; the reported point must be the first
	// seed in grid order regardless of scheduling.
	cfg := fieldSweepConfig(uniformField(9, 9, 3), nil)
	cfg.Factory = func(open defect.Open, rdef float64) (Memory, error) {
		return nil, fmt.Errorf("boom at %g", rdef)
	}
	for trial := 0; trial < 4; trial++ {
		_, _, err := TracePlane(TraceConfig{SweepConfig: cfg, Stride: 4})
		if err == nil {
			t.Fatal("want error")
		}
		want := "analysis: point (0 Ω, 0 V): boom at 0"
		if err.Error() != want {
			t.Errorf("error = %q, want %q", err, want)
		}
	}
}

// FuzzTracePlane fuzzes random field shapes and strides, checking the
// tracer's invariants (stats accounting, no double simulation, and
// mismatch-only-in-unsampled-regions soundness) against the dense
// oracle on every input. CI runs a 30s smoke of this target.
func FuzzTracePlane(f *testing.F) {
	f.Add(uint8(13), uint8(12), uint8(4), []byte{0, 1, 2, 3})
	f.Add(uint8(5), uint8(30), uint8(3), []byte{3, 3, 3, 1})
	f.Add(uint8(1), uint8(9), uint8(4), []byte{0})
	f.Add(uint8(20), uint8(20), uint8(1), []byte{2, 0, 2})
	f.Add(uint8(16), uint8(16), uint8(7), []byte{3, 3, 0, 3, 3, 3, 3, 1})
	f.Fuzz(func(t *testing.T, nr, nu, stride uint8, vals []byte) {
		nR, nU := int(nr)%24+1, int(nu)%24+1
		s := int(stride)%8 + 1
		field := make([][]uint8, nR)
		k := 0
		for i := range field {
			field[i] = make([]uint8, nU)
			for j := range field[i] {
				if len(vals) > 0 {
					field[i][j] = vals[k%len(vals)] % 4
					k++
				}
			}
		}
		checkTraceInvariants(t, field, s)
	})
}
