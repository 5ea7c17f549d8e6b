package analysis

import (
	"context"

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

	// Ctx, when non-nil, cancels the sweep: points not yet started are
	// abandoned and the context error is returned.
	Ctx context.Context

	// Replay, when non-nil, shares simulation prefixes between points;
	// it must have been built for this sweep's Factory, Open and
	// Float.Nets.
	Replay *ReplayCache
	// Pool, when non-nil, bounds concurrency together with the other
	// pipeline phases; nil means a sweep-local pool of GOMAXPROCS slots.
	Pool *Pool
}

// newPlane returns the plane of the sweep's grid with its Points rows
// allocated.
func newPlane(cfg SweepConfig) *Plane {
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
	return p
}

// pointAt materializes the Point for one grid position from its raw
// simulation outcome. The Outcome fully determines the classification,
// so sweeps that agree on outcomes produce byte-identical Points through
// this single code path.
func pointAt(sos fp.SOS, rdef, u float64, out Outcome) Point {
	pt := Point{RDef: rdef, U: u}
	if obs, faulty := ClassifyOutcome(sos, out); faulty {
		pt.Faulty = true
		pt.FP = obs
		pt.FFM = obs.Classify()
	}
	return pt
}

// SweepPlane simulates every grid point: it is TracePlane at stride 1,
// where every grid point is a seed, so the tracer classifies the whole
// grid as its seed batch, builds no cells or segments and infers
// nothing. The points form one row-major batch, run by ForEach on as
// many workers as the pool has slots. Failures park in per-point slots
// and the first one in grid order is returned after every point
// finishes, so a failing point can never stall the sweep.
func SweepPlane(cfg SweepConfig) (*Plane, error) {
	p, _, err := TracePlane(TraceConfig{SweepConfig: cfg, Stride: 1})
	return p, err
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
