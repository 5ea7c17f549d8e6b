package analysis

import (
	"fmt"
	"slices"
	"sync"
)

// DefaultTraceStride is the coarse seeding stride of TracePlane: one
// grid point in DefaultTraceStride per axis is simulated up front, and
// everything else is only simulated where the seeds (or later probes)
// reveal a verdict change. 6 is tuned on the defect catalog at seed
// resolution (13×12): it clears the 5× aggregate simulation-reduction
// target while every region spanning at least (stride+1) points per
// axis still necessarily contains a seed (DESIGN.md §14).
const DefaultTraceStride = 6

// TraceConfig parameterizes an adaptive boundary-tracing plane sweep.
// The embedded SweepConfig means every TracePlane call site can also
// run the dense oracle on the identical inputs — the differential tests
// do.
type TraceConfig struct {
	SweepConfig
	// Stride is the coarse seed stride in grid indices; 0 means
	// DefaultTraceStride. Stride 1 is the dense sweep (SweepPlane):
	// every point is a seed.
	Stride int
}

// TraceStats counts how each grid point of a traced plane was obtained.
// "Simulated" points went through the evaluation pipeline (the replay
// cache may still have served them without an engine run);
// "inferred" points were filled by unanimous-perimeter flood inference
// and never touched the pipeline at all.
type TraceStats struct {
	// Seeded counts coarse-lattice points classified up front.
	Seeded int
	// Bisected counts midpoints classified while bisecting segments
	// whose sampled endpoints disagreed.
	Bisected int
	// Refined counts points classified while subdividing ambiguous
	// cells (a sampled perimeter with more than one verdict) down to
	// single-cell resolution — the local dense fallback around every
	// detected region boundary.
	Refined int
	// Inferred counts points filled by flood inference from a
	// unanimous sampled perimeter, without simulation.
	Inferred int
}

// Simulated returns the number of points classified through the
// evaluation pipeline.
func (s TraceStats) Simulated() int { return s.Seeded + s.Bisected + s.Refined }

// Points returns the number of grid points the trace accounted for.
func (s TraceStats) Points() int { return s.Simulated() + s.Inferred }

// Reduction returns Points/Simulated — how many times fewer
// simulations the trace issued than a dense sweep of the same grid
// (1.0 when nothing was inferred).
func (s TraceStats) Reduction() float64 {
	if sim := s.Simulated(); sim > 0 {
		return float64(s.Points()) / float64(sim)
	}
	return 1
}

func (s *TraceStats) add(o TraceStats) {
	s.Seeded += o.Seeded
	s.Bisected += o.Bisected
	s.Refined += o.Refined
	s.Inferred += o.Inferred
}

// TraceCounters aggregates TraceStats across concurrent sweeps — the
// inventory pipeline's units and the service's requests share one.
type TraceCounters struct {
	mu     sync.Mutex
	stats  TraceStats
	planes int
}

// Add folds one traced plane's stats into the counters.
func (c *TraceCounters) Add(s TraceStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.add(s)
	c.planes++
}

// Snapshot returns the accumulated stats and the number of traced
// planes they cover.
func (c *TraceCounters) Snapshot() (TraceStats, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats, c.planes
}

// SweepMode selects the plane-sweep strategy.
type SweepMode string

const (
	// SweepDense simulates every grid point (SweepPlane, stride 1).
	SweepDense SweepMode = "dense"
	// SweepTraced traces region boundaries adaptively (TracePlane).
	SweepTraced SweepMode = "traced"
)

// ParseSweepMode parses a -sweep / API "sweep" value; the empty string
// means dense.
func ParseSweepMode(s string) (SweepMode, error) {
	switch SweepMode(s) {
	case "", SweepDense:
		return SweepDense, nil
	case SweepTraced:
		return SweepTraced, nil
	}
	return "", fmt.Errorf("analysis: unknown sweep mode %q (want %q or %q)", s, SweepDense, SweepTraced)
}

// RunSweep runs one plane sweep at the stride of the selected mode:
// dense sweeps at stride 1 (SweepPlane), traced sweeps at
// DefaultTraceStride. Only traced sweeps fold their stats into counters
// when given. The traced plane equals the dense one wherever
// every fault region holds a sample (the differential suite checks the
// catalog at seed resolution), but on a coarse grid it can miss a
// region no sample lands in, so callers that cache results must key the
// two modes apart.
func RunSweep(mode SweepMode, counters *TraceCounters, cfg SweepConfig) (*Plane, error) {
	if mode != SweepTraced {
		return SweepPlane(cfg)
	}
	p, stats, err := TracePlane(TraceConfig{SweepConfig: cfg})
	if err != nil {
		return nil, err
	}
	if counters != nil {
		counters.Add(stats)
	}
	return p, nil
}

// TracePlane sweeps the (R_def, U) grid by tracing region boundaries
// instead of simulating every point. It seeds a coarse lattice,
// recursively bisects every lattice segment whose endpoints disagree,
// subdivides every cell whose sampled perimeter carries more than one
// verdict until the disagreement is resolved at single-cell
// resolution, and finally fills each remaining cell from its unanimous
// sampled perimeter. The resulting *Plane carries exactly the Points a
// dense sweep (stride 1) of the same SweepConfig produces whenever every
// fault region of the dense plane contains at least one traced sample
// — which the differential suite proves for the whole defect catalog.
// No point is ever guessed between candidate verdicts: a cell is
// inferred only when every sampled point on its perimeter agrees, and
// any disagreement forces subdivision until the contested points are
// individually simulated (see DESIGN.md §14 for the soundness
// argument and the precise guarantee).
func TracePlane(cfg TraceConfig) (*Plane, TraceStats, error) {
	if len(cfg.RDefs) == 0 || len(cfg.Us) == 0 {
		return nil, TraceStats{}, fmt.Errorf("analysis: empty sweep grid")
	}
	stride := cfg.Stride
	if stride <= 0 {
		stride = DefaultTraceStride
	}
	pool := cfg.Pool
	if pool == nil {
		pool = NewPool(0)
	}
	t := &tracer{
		cfg:  cfg.SweepConfig,
		pool: pool,
		nR:   len(cfg.RDefs),
		nU:   len(cfg.Us),
	}
	t.out = make([][]Outcome, t.nR)
	t.known = make([][]bool, t.nR)
	outs, known := make([]Outcome, t.nR*t.nU), make([]bool, t.nR*t.nU)
	for i := range t.out {
		t.out[i], outs = outs[:t.nU:t.nU], outs[t.nU:]
		t.known[i], known = known[:t.nU:t.nU], known[t.nU:]
	}

	seedsR := seedIndices(t.nR, stride)
	seedsU := seedIndices(t.nU, stride)

	// Phase 1: classify the coarse seed lattice.
	batch := make([]gridPt, 0, len(seedsR)*len(seedsU))
	for _, i := range seedsR {
		for _, j := range seedsU {
			batch = append(batch, gridPt{i, j})
		}
	}
	if err := t.classify(batch, &t.stats.Seeded); err != nil {
		return nil, TraceStats{}, err
	}

	// Initial cells span consecutive seed pairs; their edges are the
	// initial bisection segments. When the seeds are the whole grid
	// (stride 1, the dense sweep, or a grid of at most two points per
	// axis) every cell is a 1×1 cell with a known perimeter, so none is
	// built and the phases below do nothing.
	var cells []traceCell
	if t.stats.Seeded < t.nR*t.nU {
		for a := 0; a < len(seedsR)-1 || (len(seedsR) == 1 && a == 0); a++ {
			i0, i1 := seedsR[a], seedsR[min(a+1, len(seedsR)-1)]
			for b := 0; b < len(seedsU)-1 || (len(seedsU) == 1 && b == 0); b++ {
				j0, j1 := seedsU[b], seedsU[min(b+1, len(seedsU)-1)]
				cells = append(cells, traceCell{i0, i1, j0, j1})
			}
		}
	}
	var segs []traceSeg
	for _, c := range cells {
		segs = append(segs, c.edges()...)
	}

	// Phase 2+3 fixpoint: bisect all conflicted segments, then split
	// every cell whose sampled perimeter is ambiguous; splits sample
	// new points and create new segments, so loop until both settle.
	// Knowledge only grows and every rule is monotone, so the fixpoint
	// is unique — the traced plane does not depend on scheduling.
	for {
		if err := t.bisect(segs); err != nil {
			return nil, TraceStats{}, err
		}
		segs = segs[:0]
		split := false
		// next must not alias cells: a split appends two children while
		// the range over cells is still reading ahead.
		next := make([]traceCell, 0, len(cells))
		var refine []gridPt
		for _, c := range cells {
			if uniform, _ := t.perimeter(c); uniform || !c.splittable() {
				next = append(next, c)
				continue
			}
			split = true
			children, pts, es := c.split()
			next = append(next, children...)
			refine = append(refine, pts...)
			segs = append(segs, es...)
		}
		cells = next
		if !split {
			break
		}
		if err := t.classify(refine, &t.stats.Refined); err != nil {
			return nil, TraceStats{}, err
		}
	}

	// Phase 4: flood inference. At the fixpoint every cell with an
	// unknown point has a unanimous sampled perimeter (ambiguous cells
	// were subdivided until all their points were simulated), so the
	// fill never chooses between verdicts.
	for _, c := range cells {
		uniform, v := t.perimeter(c)
		if !uniform {
			continue // minimal cell: every point already simulated
		}
		for i := c.i0; i <= c.i1; i++ {
			for j := c.j0; j <= c.j1; j++ {
				if !t.known[i][j] {
					t.out[i][j] = v
					t.known[i][j] = true
					t.stats.Inferred++
				}
			}
		}
	}

	p := newPlane(cfg.SweepConfig)
	for i := range p.Points {
		for j := range p.Points[i] {
			if !t.known[i][j] {
				return nil, TraceStats{}, fmt.Errorf("analysis: trace left point (%d,%d) unresolved", i, j)
			}
			p.Points[i][j] = pointAt(cfg.SOS, cfg.RDefs[i], cfg.Us[j], t.out[i][j])
		}
	}
	return p, t.stats, nil
}

// seedIndices returns 0, stride, 2·stride, … plus the last index.
func seedIndices(n, stride int) []int {
	out := make([]int, 0, (n-1)/stride+2)
	for i := 0; i < n; i += stride {
		out = append(out, i)
	}
	if out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

// gridPt is one (R_def index, U index) grid position.
type gridPt struct{ i, j int }

// traceSeg is an axis-aligned segment between two sampled points:
// along the U axis at fixed R_def row when horizontal, along the R_def
// axis at fixed U column otherwise. a < b are the varying-axis bounds.
type traceSeg struct {
	horizontal bool
	line       int
	a, b       int
}

func (s traceSeg) pt(x int) gridPt {
	if s.horizontal {
		return gridPt{s.line, x}
	}
	return gridPt{x, s.line}
}

// traceCell is a closed grid rectangle whose corners are sampled.
type traceCell struct{ i0, i1, j0, j1 int }

func (c traceCell) splittable() bool { return c.i1-c.i0 >= 2 || c.j1-c.j0 >= 2 }

func (c traceCell) edges() []traceSeg {
	var out []traceSeg
	if c.j1 > c.j0 {
		out = append(out,
			traceSeg{horizontal: true, line: c.i0, a: c.j0, b: c.j1},
			traceSeg{horizontal: true, line: c.i1, a: c.j0, b: c.j1})
	}
	if c.i1 > c.i0 {
		out = append(out,
			traceSeg{horizontal: false, line: c.j0, a: c.i0, b: c.i1},
			traceSeg{horizontal: false, line: c.j1, a: c.i0, b: c.i1})
	}
	return out
}

// split bisects the cell along its larger axis and returns the two
// children, the midline's newly sampled endpoints, and the segments
// the split creates: the midline itself plus the halves of the
// perpendicular parent edges, whose new interior sample can reveal
// crossings the coarser endpoints hid.
func (c traceCell) split() (children []traceCell, pts []gridPt, segs []traceSeg) {
	if c.i1-c.i0 >= c.j1-c.j0 {
		im := (c.i0 + c.i1) / 2
		children = []traceCell{{c.i0, im, c.j0, c.j1}, {im, c.i1, c.j0, c.j1}}
		pts = []gridPt{{im, c.j0}, {im, c.j1}}
		segs = append(segs, traceSeg{horizontal: true, line: im, a: c.j0, b: c.j1})
		segs = append(segs,
			traceSeg{horizontal: false, line: c.j0, a: c.i0, b: im},
			traceSeg{horizontal: false, line: c.j0, a: im, b: c.i1},
			traceSeg{horizontal: false, line: c.j1, a: c.i0, b: im},
			traceSeg{horizontal: false, line: c.j1, a: im, b: c.i1})
		return children, pts, segs
	}
	jm := (c.j0 + c.j1) / 2
	children = []traceCell{{c.i0, c.i1, c.j0, jm}, {c.i0, c.i1, jm, c.j1}}
	pts = []gridPt{{c.i0, jm}, {c.i1, jm}}
	segs = append(segs, traceSeg{horizontal: false, line: jm, a: c.i0, b: c.i1})
	segs = append(segs,
		traceSeg{horizontal: true, line: c.i0, a: c.j0, b: jm},
		traceSeg{horizontal: true, line: c.i0, a: jm, b: c.j1},
		traceSeg{horizontal: true, line: c.i1, a: c.j0, b: jm},
		traceSeg{horizontal: true, line: c.i1, a: jm, b: c.j1})
	return children, pts, segs
}

// tracer carries the mutable state of one TracePlane call.
type tracer struct {
	cfg    SweepConfig
	pool   *Pool
	nR, nU int
	out    [][]Outcome
	known  [][]bool
	stats  TraceStats
}

// classify simulates every not-yet-known point of the batch through
// the shared evaluation pipeline (replay, pool), crediting the given
// counter. The points run on as many workers as the pool has slots,
// which take them in grid order: more would only wait for a slot. The
// batch is sorted into grid order and deduplicated in place, so batch
// membership, stats and the error returned on failure (first in grid
// order) are all independent of goroutine scheduling.
func (t *tracer) classify(batch []gridPt, counter *int) error {
	slices.SortFunc(batch, func(a, b gridPt) int {
		if a.i != b.i {
			return a.i - b.i
		}
		return a.j - b.j
	})
	// A repeat of a kept point follows it directly once sorted.
	work := batch[:0]
	for _, p := range batch {
		if !t.known[p.i][p.j] && (len(work) == 0 || work[len(work)-1] != p) {
			work = append(work, p)
		}
	}
	if len(work) == 0 {
		return nil
	}
	*counter += len(work)
	return ForEach(t.cfg.Ctx, len(work), t.pool.Slots(), func(k int) error {
		p := work[k]
		out, err := evalPoint(&t.cfg, t.pool, p.i, p.j)
		if err != nil {
			return err
		}
		t.out[p.i][p.j] = out
		t.known[p.i][p.j] = true
		return nil
	})
}

// evalPoint evaluates the sweep's SOS at grid point (i, j).
func evalPoint(cfg *SweepConfig, pool *Pool, i, j int) (Outcome, error) {
	rdef, u := cfg.RDefs[i], cfg.Us[j]
	out, err := evalSOS(cfg.Ctx, pool, cfg.Factory, cfg.Open, rdef, cfg.Float.Nets, u, cfg.SOS, cfg.Replay)
	if err != nil {
		return Outcome{}, fmt.Errorf("analysis: point (%.3g Ω, %.3g V): %w", rdef, u, err)
	}
	return out, nil
}

// bisect drives the segment worklist to its fixpoint: every segment
// whose sampled endpoints disagree is split at its midpoint until the
// crossing is pinned between two adjacent grid points. Midpoints are
// classified in deterministic batches, one per bisection depth.
func (t *tracer) bisect(segs []traceSeg) error {
	pending := segs
	for len(pending) > 0 {
		var next []traceSeg
		var batch []gridPt
		for _, s := range pending {
			pa, pb := s.pt(s.a), s.pt(s.b)
			if t.out[pa.i][pa.j] == t.out[pb.i][pb.j] {
				continue // no crossing detectable between these samples
			}
			if s.b-s.a <= 1 {
				continue // crossing resolved at single-cell resolution
			}
			m := (s.a + s.b) / 2
			batch = append(batch, s.pt(m))
			next = append(next,
				traceSeg{horizontal: s.horizontal, line: s.line, a: s.a, b: m},
				traceSeg{horizontal: s.horizontal, line: s.line, a: m, b: s.b})
		}
		if err := t.classify(batch, &t.stats.Bisected); err != nil {
			return err
		}
		pending = next
	}
	return nil
}

// perimeter scans the sampled points on the cell's boundary and
// reports whether they are unanimous, returning the shared outcome
// when they are. Cell corners are always sampled, so a unanimous
// verdict always exists for a uniform cell.
func (t *tracer) perimeter(c traceCell) (bool, Outcome) {
	var v Outcome
	first := true
	check := func(i, j int) bool {
		if !t.known[i][j] {
			return true
		}
		if first {
			v = t.out[i][j]
			first = false
			return true
		}
		return t.out[i][j] == v
	}
	for j := c.j0; j <= c.j1; j++ {
		if !check(c.i0, j) || !check(c.i1, j) {
			return false, Outcome{}
		}
	}
	for i := c.i0; i <= c.i1; i++ {
		if !check(i, c.j0) || !check(i, c.j1) {
			return false, Outcome{}
		}
	}
	return true, v
}
