package analysis

import "fmt"

// DenseSweep is the dense-sweep oracle: the goroutine-per-point loop
// SweepPlane ran before it became TracePlane at stride 1. It simulates
// every grid point in parallel under the pool, parks failures in
// per-point slots and returns the first one in grid order after all
// workers finish. The traced-vs-dense and pooled-vs-fresh suites compare
// against it; it is exported here, in a test file, for the external test
// package.
func DenseSweep(cfg SweepConfig) (*Plane, error) {
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
		pool = NewPool(0)
	}
	nU := len(cfg.Us)
	n := len(cfg.RDefs) * nU
	err := ForEach(cfg.Ctx, n, n, func(k int) error {
		i, j := k/nU, k%nU
		rdef, u := cfg.RDefs[i], cfg.Us[j]
		out, err := evalSOS(cfg.Ctx, pool, cfg.Factory, cfg.Open, rdef, cfg.Float.Nets, u, cfg.SOS, cfg.Replay)
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
