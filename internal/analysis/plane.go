package analysis

import (
	"context"
	"fmt"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

// Point is one simulated point of an (R_def, U) plane.
type Point struct {
	// RDef is the injected open resistance in ohms.
	RDef float64
	// U is the initialized floating voltage in volts.
	U float64
	// Faulty reports whether a deviation was observed.
	Faulty bool
	// FP is the observed fault primitive when Faulty.
	FP fp.FP
	// FFM is the classification of FP (FFMUnknown for unnamed shapes).
	FFM fp.FFM
}

// Plane is the result of sweeping one SOS over the (R_def, U) grid for a
// given open and floating-voltage group — the data behind Figures 3
// and 4.
type Plane struct {
	// Open is the analyzed defect.
	Open defect.Open
	// Float is the initialized floating-voltage group.
	Float defect.FloatGroup
	// SOS is the applied sensitizing sequence.
	SOS fp.SOS
	// RDefs and Us are the grid axes (RDefs ascending, Us ascending).
	RDefs, Us []float64
	// Points is indexed [iRDef][iU].
	Points [][]Point
}

// SweepConfig parameterizes a plane sweep.
type SweepConfig struct {
	// Factory builds the device under analysis.
	Factory Factory
	// Open is the defect to inject.
	Open defect.Open
	// Float selects the floating-voltage group to initialize.
	Float defect.FloatGroup
	// SOS is the sequence under analysis.
	SOS fp.SOS
	// RDefs and Us are the grid axes.
	RDefs, Us []float64
	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	// Ignored when Pool is set.
	Parallelism int

	// Ctx, when non-nil, cancels the sweep: points not yet started are
	// abandoned and the context error is returned.
	Ctx context.Context

	// Replay, when non-nil, shares simulation prefixes between points;
	// it must have been built for this sweep's Factory, Open and
	// Float.Nets.
	Replay *ReplayCache
	// Pool, when non-nil, bounds concurrency together with the other
	// pipeline phases instead of a sweep-local limit.
	Pool *Pool
}

// pointAt materializes the Point for one grid position from its raw
// simulation outcome. The Outcome fully determines the classification,
// so dense sweeps and traced sweeps that agree on outcomes produce
// byte-identical Points through this single code path.
func pointAt(sos fp.SOS, rdef, u float64, out Outcome) Point {
	pt := Point{RDef: rdef, U: u}
	if obs, faulty := ClassifyOutcome(sos, out); faulty {
		pt.Faulty = true
		pt.FP = obs
		pt.FFM = obs.Classify()
	}
	return pt
}

// SweepPlane simulates every grid point, in parallel. Points are fully
// independent (each builds — or checks caches for — its own defective
// memory state), so the sweep spawns one goroutine per point gated by a
// semaphore. Failures park in per-point slots and the first one in grid
// order is returned after all workers finish: a failing point can never
// stall the sweep, no matter how many points fail.
func SweepPlane(cfg SweepConfig) (*Plane, error) {
	if len(cfg.RDefs) == 0 || len(cfg.Us) == 0 {
		return nil, fmt.Errorf("analysis: empty sweep grid")
	}
	p := &Plane{
		Open:  cfg.Open,
		Float: cfg.Float,
		SOS:   cfg.SOS,
		RDefs: cfg.RDefs,
		Us:    cfg.Us,
	}
	p.Points = make([][]Point, len(cfg.RDefs))
	for i := range p.Points {
		p.Points[i] = make([]Point, len(cfg.Us))
	}
	pool := cfg.Pool
	if pool == nil {
		pool = NewPool(cfg.Parallelism)
	}
	nU := len(cfg.Us)
	err := pool.ForEach(cfg.Ctx, len(cfg.RDefs)*nU, func(k int) error {
		i, j := k/nU, k%nU
		rdef, u := cfg.RDefs[i], cfg.Us[j]
		out, err := evalSOS(cfg.Factory, cfg.Open, rdef, cfg.Float.Nets, u, cfg.SOS, cfg.Replay)
		if err != nil {
			return fmt.Errorf("analysis: point (%.3g Ω, %.3g V): %w", rdef, u, err)
		}
		p.Points[i][j] = pointAt(cfg.SOS, rdef, u, out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// FFMs returns the set of named FFMs observed anywhere in the plane.
func (p *Plane) FFMs() []fp.FFM {
	seen := map[fp.FFM]bool{}
	var out []fp.FFM
	for _, row := range p.Points {
		for _, pt := range row {
			if pt.Faulty && pt.FFM != fp.FFMUnknown && !seen[pt.FFM] {
				seen[pt.FFM] = true
				out = append(out, pt.FFM)
			}
		}
	}
	return out
}

// FaultyFraction returns the fraction of grid points showing any fault.
func (p *Plane) FaultyFraction() float64 {
	total, faulty := 0, 0
	for _, row := range p.Points {
		for _, pt := range row {
			total++
			if pt.Faulty {
				faulty++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(faulty) / float64(total)
}

// RowFFM reports, for the R_def row i, how many U points exhibit the
// given FFM and how many U points the row has.
func (p *Plane) RowFFM(i int, f fp.FFM) (count, total int) {
	row := p.Points[i]
	for _, pt := range row {
		if pt.Faulty && pt.FFM == f {
			count++
		}
	}
	return count, len(row)
}

// MinRDefWithFFM returns the smallest R_def at which the FFM appears for
// the given U index, or (0, false).
func (p *Plane) MinRDefWithFFM(f fp.FFM, uIdx int) (float64, bool) {
	for i := range p.RDefs {
		pt := p.Points[i][uIdx]
		if pt.Faulty && pt.FFM == f {
			return p.RDefs[i], true
		}
	}
	return 0, false
}
