package bitsim

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/memsim"
)

// The class-vs-dense differential suite: the dense lane set gives every
// address its own class and runs the same kernels, so it is the oracle
// for the class lane sets at sizes the scalar engine cannot reach. Both
// must catch exactly the same victims, address by address.

// denseLanes is the lane set with one class per address.
func denseLanes(g geom) *lanes {
	cuts := make([]int, g.n+1)
	for i := range cuts {
		cuts[i] = i
	}
	return newLanes(g, cuts)
}

// perAddress expands a lane bitmap into one bit per address.
func perAddress(l *lanes, det []uint64) []uint64 {
	n := l.cut[len(l.cut)-1]
	out := make([]uint64, (n+63)/64)
	for i := 0; i+1 < len(l.cut); i++ {
		if det[i/64]>>(i%64)&1 == 0 {
			continue
		}
		for a := l.cut[i]; a < l.cut[i+1]; a++ {
			out[a/64] |= 1 << (a % 64)
		}
	}
	return out
}

// sameDetections runs one assignment on the class and the dense lane
// set and fails unless both catch the same addresses.
func sameDetections(t *testing.T, what string, classes, dense *lanes, run func(*lanes) ([]uint64, error)) {
	t.Helper()
	c, err := run(classes)
	if err != nil {
		t.Fatalf("%s: classes: %v", what, err)
	}
	d, err := run(dense)
	if err != nil {
		t.Fatalf("%s: dense: %v", what, err)
	}
	if got, want := perAddress(classes, c), perAddress(dense, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: class lanes catch %x, dense lanes %x", what, got, want)
	}
}

// neighbourOffsets are the in-array aggressor offsets ±1, ±cols,
// ±(cols+1), ±(n-1) and 2·cols-1, without duplicates.
func neighbourOffsets(g geom) []int {
	var out []int
	for _, d := range []int{1, -1, g.cols, -g.cols, g.cols + 1, -g.cols - 1, g.n - 1, 1 - g.n, 2*g.cols - 1} {
		if d != 0 && max(d, -d) < g.n && !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	return out
}

// checkSingleClassDense compares class and dense lanes for every
// assignment of every test × entry.
func checkSingleClassDense(t *testing.T, g geom, tests []march.Test, entries []march.CatalogEntry) {
	t.Helper()
	classes, dense := newLanes(g, g.singleCellCuts()), denseLanes(g)
	if k := len(classes.cut) - 1; k > 5 {
		t.Fatalf("%dx%d: %d single-cell classes, want at most 5", g.rows, g.cols, k)
	}
	for _, test := range tests {
		for _, elems := range traces(test) {
			for _, e := range entries {
				spec, err := memsim.CompileFault(e.Make(0))
				if err != nil {
					t.Fatal(err)
				}
				what := test.Name + " × " + e.Name
				sameDetections(t, what, classes, dense, func(l *lanes) ([]uint64, error) {
					return runSingle(g, l, spec, elems)
				})
			}
		}
	}
}

// checkTwoCellClassDense compares class and dense lanes for every
// assignment of every test × supported entry at each offset.
func checkTwoCellClassDense(t *testing.T, g geom, tests []march.Test, entries []march.TwoCellCatalogEntry, offsets []int) {
	t.Helper()
	dense := denseLanes(g)
	for _, d := range offsets {
		classes := newLanes(g, g.twoCellCuts(d))
		if k := len(classes.cut) - 1; k > 15 {
			t.Fatalf("%dx%d δ=%d: %d two-cell classes, want at most 15", g.rows, g.cols, d, k)
		}
		for _, test := range tests {
			for _, elems := range traces(test) {
				for _, e := range entries {
					s, err := compileTwoCell(e)
					if errors.Is(err, march.ErrEngineUnsupported) {
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					what := test.Name + " × " + e.Name
					sameDetections(t, what, classes, dense, func(l *lanes) ([]uint64, error) {
						return runTwoCell(g, l, s, d, elems)
					})
				}
			}
		}
	}
}

func TestClassDenseEquivalence(t *testing.T) {
	for _, rc := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {9, 70}, {70, 9}, {64, 64}} {
		g := geom{rows: rc[0], cols: rc[1], n: rc[0] * rc[1]}
		checkSingleClassDense(t, g, march.All(), singleCatalog())
		checkTwoCellClassDense(t, g, march.All(), march.TwoCellCatalog(), neighbourOffsets(g))
	}
}

func TestClassDenseEquivalence256x256(t *testing.T) {
	g := geom{rows: 256, cols: 256, n: 256 * 256}
	tests := []march.Test{march.MATSPlus(), march.MarchSS(), march.MarchPF()}
	singles := singleCatalog()
	checkSingleClassDense(t, g, tests, []march.CatalogEntry{singles[0], singles[13], singles[len(singles)-1]})
	checkTwoCellClassDense(t, g, tests, march.TwoCellCatalog()[:4], neighbourOffsets(g))
}

// TestLaneGuard makes the guard fire: a lane set cut only at the array
// bounds cannot tell the walk-first address apart, so a mask over it
// stays empty and every run reports an error instead of a count.
func TestLaneGuard(t *testing.T) {
	g := geom{rows: 4, cols: 4, n: 16}
	coarse := func() *lanes { return newLanes(g, []int{0, g.n}) }

	l := &lanes{cut: []int{0, g.n}, w: 1}
	dst := []uint64{^uint64(0)}
	l.rangeMask(1, 2, dst)
	if l.err == nil || dst[0] != 0 {
		t.Fatalf("[1, 2) over cuts {0, %d}: mask %x, err %v", g.n, dst[0], l.err)
	}

	elems := traces(march.MATSPlus())[0]
	spec, err := memsim.CompileFault(singleCatalog()[0].Make(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSingle(g, coarse(), spec, elems); err == nil {
		t.Fatal("single-cell run over a split class reported no error")
	}
	s, err := compileTwoCell(march.TwoCellCatalog()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runTwoCell(g, coarse(), s, 1, elems); err == nil {
		t.Fatal("two-cell run over a split class reported no error")
	}
}
