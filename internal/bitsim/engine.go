package bitsim

import (
	"fmt"
	"math"

	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/memsim"
)

// Engine is the bit-plane march backend. It holds no state and runs
// every call on the caller's goroutine; New returns one for symmetry
// with the rest of the codebase.
type Engine struct{}

// New returns an engine.
func New() *Engine { return &Engine{} }

// Name identifies the backend.
func (e *Engine) Name() string { return "bitsim" }

// march.Engine conformance.
var _ march.Engine = (*Engine)(nil)

func checkGeometry(t march.Test, rows, cols int) (geom, error) {
	if err := t.Validate(); err != nil {
		return geom{}, err
	}
	if rows <= 0 || cols <= 0 || rows > math.MaxInt/cols {
		return geom{}, fmt.Errorf("bitsim: invalid geometry %dx%d", rows, cols)
	}
	return geom{rows: rows, cols: cols, n: rows * cols}, nil
}

// errCount reports a scenario count (cells or pairs × order
// assignments) too large for an int, where it would wrap into a verdict.
func (g geom) errCount() error {
	return fmt.Errorf("bitsim: geometry %dx%d: the scenario count overflows an int", g.rows, g.cols)
}

func detection(caught, total int) march.Detection {
	return march.Detection{Detected: caught == total && total > 0, Caught: caught, Scenarios: total}
}

// Detects evaluates a single-cell catalog entry over all victims and
// ⇕-order assignments, with verdicts identical to the scalar engine's.
func (e *Engine) Detects(t march.Test, rows, cols int, entry march.CatalogEntry) (march.Detection, error) {
	g, err := checkGeometry(t, rows, cols)
	if err != nil {
		return march.Detection{}, err
	}
	spec, err := memsim.CompileFault(entry.Make(0))
	if err != nil {
		return march.Detection{}, err
	}
	ts := traces(t)
	if g.n > math.MaxInt/len(ts) {
		return march.Detection{}, g.errCount()
	}
	l := newLanes(g, g.singleCellCuts())
	caught, total := 0, 0
	for _, elems := range ts {
		det, err := runSingle(g, l, spec, elems)
		if err != nil {
			return march.Detection{}, err
		}
		caught += l.count(det)
		total += g.n
	}
	return detection(caught, total), nil
}
