package request

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/memtest/partialfaults/internal/dram"
)

// kinds names the six request kinds in the order FuzzNormalize's kind
// byte picks them.
var kinds = []string{"inventory", "coverage", "twocell", "matrix", "predict", "stress"}

// FuzzNormalize decodes arbitrary bodies of every kind the way the
// service does and normalizes them; it never runs one. Nothing may
// panic, every error must be a BadRequest, an accepted request must lie
// inside the grid-axis, geometry and two-cell pass bounds, and
// re-encoding a normalized request and normalizing it again must give
// the same key.
func FuzzNormalize(f *testing.F) {
	for _, c := range pinnedBodies {
		f.Add(uint8(slices.Index(kinds, c.kind)), c.body)
	}
	for _, c := range rejectedBodies {
		f.Add(uint8(slices.Index(kinds, c.kind)), c.body)
	}
	env, err := NewEnv(1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, kind uint8, body string) {
		name := kinds[int(kind)%len(kinds)]
		q := newKind(t, name)
		if decodeStrict(body, q) != nil {
			return
		}
		if err := q.Normalize(env); err != nil {
			var bad BadRequest
			if !errors.As(err, &bad) {
				t.Fatalf("%s %s: Normalize error %v is not a BadRequest", name, body, err)
			}
			return
		}
		checkBounds(t, q)
		k := q.Key(env)
		again := newKind(t, name)
		if err := decodeStrict(k.Spec, again); err != nil {
			t.Fatalf("%s: normalized spec %s does not decode: %v", name, k.Spec, err)
		}
		if err := again.Normalize(env); err != nil {
			t.Fatalf("%s: normalized spec %s does not normalize: %v", name, k.Spec, err)
		}
		if k2 := again.Key(env); k2 != k {
			t.Fatalf("%s %s: normalizing twice changes the key:\n%s\n%s", name, body, k.Spec, k2.Spec)
		}
	})
}

// checkBounds fails unless a normalized request lies inside every bound
// Normalize promises: strictly increasing grid axes of 1 to
// maxAxisPoints finite points (positive resistances), strictly
// increasing open IDs, sides of 1 to maxSide, 1 to maxCorners stress
// corners, at most maxTwoCellPasses aggressor-offset passes, and
// predict defects at distinct sites with resistances of at least 0 and
// below the open cutoff.
func checkBounds(t *testing.T, q keyed) {
	t.Helper()
	grid := func(g Grid) {
		for _, axis := range [][]float64{g.RDefs, g.Us} {
			if len(axis) == 0 || len(axis) > maxAxisPoints {
				t.Fatalf("accepted a grid axis of %d points", len(axis))
			}
			for i, v := range axis {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted a grid value %g", v)
				}
				if i > 0 && !(v > axis[i-1]) {
					t.Fatalf("accepted grid axis %v: not strictly increasing", axis)
				}
			}
		}
		for _, r := range g.RDefs {
			if !(r > 0) {
				t.Fatalf("accepted a resistance %g", r)
			}
		}
	}
	side := func(rows, cols int) {
		if rows < 1 || cols < 1 || rows > maxSide || cols > maxSide {
			t.Fatalf("accepted a %dx%d geometry", rows, cols)
		}
	}
	opens := func(ids []int) {
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("accepted open IDs %v: not strictly increasing", ids)
			}
		}
	}
	switch q := q.(type) {
	case *Inventory:
		grid(q.Grid)
		opens(q.Opens)
	case *Coverage:
		side(q.Rows, q.Cols)
	case *TwoCell:
		side(q.Rows, q.Cols)
		if n := len(q.Offsets); n > maxTwoCellPasses || n == 0 && 2*(q.Rows*q.Cols-1) > maxTwoCellPasses {
			t.Fatalf("accepted a %dx%d certificate over %d offsets", q.Rows, q.Cols, n)
		}
	case *Predict:
		cutoff := dram.LintModel().CutoffOhms
		for i, d := range q.Defects {
			if !(d.Ohms >= 0 && d.Ohms < cutoff) {
				t.Fatalf("accepted defect %s at %g Ω", d.Site, d.Ohms)
			}
			if slices.ContainsFunc(q.Defects[:i], func(p PredictDefect) bool { return p.Site == d.Site }) {
				t.Fatalf("accepted defect site %s twice", d.Site)
			}
		}
	case *Stress:
		grid(q.Grid)
		side(q.Rows, q.Cols)
		opens(q.Opens)
		if n := len(q.corners); n == 0 || n > maxCorners {
			t.Fatalf("accepted %d corners", n)
		}
	}
}
