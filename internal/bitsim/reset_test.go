package bitsim

import (
	"errors"
	"slices"
	"testing"

	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/memsim"
)

// runSingle evaluates one walk on a fresh run: the oracle for a run that
// Detects reuses across the walks of a call.
func runSingle(g geom, l *lanes, spec memsim.CompiledFault, w walk) ([]uint64, error) {
	return newSCRun(g, l, spec).run(w)
}

// runTwoCell evaluates one walk at offset delta on a fresh run.
func runTwoCell(g geom, l *lanes, s tcSpec, delta int, w walk) ([]uint64, error) {
	return newTCRun(g, l, s, delta).run(w)
}

// complement returns t with every data value inverted.
func complement(t march.Test) march.Test {
	c := march.Test{Name: t.Name + " (complement)"}
	for _, e := range t.Elements {
		ops := make([]march.Op, len(e.Ops))
		for i, op := range e.Ops {
			ops[i] = march.Op{Read: op.Read, Data: 1 - op.Data}
		}
		c.Elements = append(c.Elements, march.Element{Order: e.Order, Ops: ops})
	}
	return c
}

// libraryWalks returns every order assignment of every library test
// and of its complement, then the same walks in reverse. Every library
// test starts with w0 and ends on a 0, so only a complement leaves the
// victim history that a following test's w0, r0 completes to a stale
// [w1 w1 w0] r0 match.
func libraryWalks() []walk {
	var ws []walk
	for _, test := range march.All() {
		ws = append(ws, traces(test)...)
		ws = append(ws, traces(complement(test))...)
	}
	rev := slices.Clone(ws)
	slices.Reverse(rev)
	return append(ws, rev...)
}

// TestRunResetMatchesFresh: one run reused over every walk of every
// library test and its complement, forward and reversed, gives the
// per-lane bitmap a fresh run gives, for every single-cell entry and
// every supported two-cell entry at offsets ±1 and ±cols. Whatever a
// walk leaves behind — the history ring rotated, a previous operation
// recorded, caught lanes — reset must clear.
func TestRunResetMatchesFresh(t *testing.T) {
	ws := libraryWalks()
	sawSeq, sawDynamic := false, false
	for _, rc := range [][2]int{{2, 2}, {8, 8}} {
		g := geom{rows: rc[0], cols: rc[1], n: rc[0] * rc[1]}
		l := newLanes(g, g.singleCellCuts())
		for _, e := range singleCatalog() {
			spec, err := memsim.CompileFault(e.Make(0))
			if err != nil {
				t.Fatal(err)
			}
			sawSeq = sawSeq || spec.Kind == memsim.TrigVictimSeq && len(spec.Seq) > 1
			sawDynamic = sawDynamic || spec.Dynamic
			r := newSCRun(g, l, spec)
			for i, w := range ws {
				got, err := r.run(w)
				if err != nil {
					t.Fatal(err)
				}
				want, err := runSingle(g, l, spec, w)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%dx%d %s, walk %d: reused run %x, fresh run %x", g.rows, g.cols, e.Name, i, got, want)
				}
			}
		}
		for _, d := range []int{1, -1, g.cols, -g.cols} {
			l := newLanes(g, g.twoCellCuts(d))
			for _, e := range march.TwoCellCatalog() {
				s, err := compileTwoCell(e)
				if errors.Is(err, march.ErrEngineUnsupported) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				r := newTCRun(g, l, s, d)
				for i, w := range ws {
					got, err := r.run(w)
					if err != nil {
						t.Fatal(err)
					}
					want, err := runTwoCell(g, l, s, d, w)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%dx%d %s δ=%d, walk %d: reused run %x, fresh run %x", g.rows, g.cols, e.Name, d, i, got, want)
					}
				}
			}
		}
	}
	if !sawSeq || !sawDynamic {
		t.Fatalf("catalog lacks a victim-sequence (%v) or a dynamic (%v) entry", sawSeq, sawDynamic)
	}
}

// TestAllocsPerCall: a call allocates per call, not per order
// assignment. One Detects or DetectsTwoCellOffsets of March PF (16
// assignments) allocates no more than the same test with every ⇕ fixed
// to ⇑ (one assignment).
func TestAllocsPerCall(t *testing.T) {
	const rows, cols = 256, 256
	pf := march.MarchPF()
	up := march.Test{Name: "March PF, every ⇕ as ⇑", Elements: slices.Clone(pf.Elements)}
	for i := range up.Elements {
		if up.Elements[i].Order == march.Any {
			up.Elements[i].Order = march.Up
		}
	}
	eng := New()
	check := func(what string, call func(march.Test) error) {
		t.Helper()
		count := func(test march.Test) float64 {
			return testing.AllocsPerRun(10, func() {
				if err := call(test); err != nil {
					t.Fatal(err)
				}
			})
		}
		if many, one := count(pf), count(up); many > one {
			t.Errorf("%s: %v allocations over 16 assignments, %v over one", what, many, one)
		}
	}
	for _, e := range singleCatalog() {
		check("Detects × "+e.Name, func(test march.Test) error {
			_, err := eng.Detects(test, rows, cols, e)
			return err
		})
	}
	offsets := []int{1, -1, cols, -cols}
	for _, e := range march.TwoCellCatalog() {
		check("DetectsTwoCellOffsets × "+e.Name, func(test march.Test) error {
			_, err := eng.DetectsTwoCellOffsets(test, rows, cols, e, offsets)
			return err
		})
	}
}
