package bitsim

import (
	"testing"

	"github.com/memtest/partialfaults/internal/march"
)

// FuzzBitsimEquivalence throws parser-accepted march tests at both
// engines on small geometries and demands identical verdicts for a
// fuzz-chosen catalog entry. It then compares the class and the dense
// lane sets on a fuzz-chosen geometry up to 32×32 and aggressor offset,
// where a class can hold hundreds of addresses. Anything Parse accepts
// is fair game — including degenerate tests the library would never
// ship.
func FuzzBitsimEquivalence(f *testing.F) {
	f.Add("{m(w0); u(r0,w1); d(r1,w0)}", uint8(0), uint8(0), uint8(31), uint8(31), uint16(0))
	f.Add("{m(w0); u(r0,w1,r1,w0,r0,w1); d(r1,w0,r0,w1,r1,w0); m(r0)}", uint8(3), uint8(1), uint8(8), uint8(2), uint16(5))
	f.Add("{m(w0); m(r0,w1); m(r1,w0); m(r0)}", uint8(7), uint8(2), uint8(0), uint8(6), uint16(3))
	f.Add("{u(w0); u(r0); u(w1); u(r1)}", uint8(11), uint8(3), uint8(6), uint8(0), uint16(12))
	f.Add("{d(w1); m(r1,w0,w1); u(r1)}", uint8(20), uint8(0), uint8(4), uint8(9), uint16(70))

	singles := singleCatalog()
	twos := march.TwoCellCatalog()
	scalar := march.ScalarEngine{}
	eng := New()
	geoms := [][2]int{{2, 2}, {2, 3}, {3, 3}}

	f.Fuzz(func(t *testing.T, notation string, entryIdx, geomIdx, rowsIdx, colsIdx uint8, offIdx uint16) {
		test, err := march.Parse("fuzz", notation)
		if err != nil {
			t.Skip()
		}
		// Bound the assignment blow-up: 2^k order assignments.
		anyCount := 0
		for _, e := range test.Elements {
			if e.Order == march.Any {
				anyCount++
			}
			if len(e.Ops) > 8 {
				t.Skip()
			}
		}
		if len(test.Elements) > 6 || anyCount > 4 {
			t.Skip()
		}
		g := geoms[int(geomIdx)%len(geoms)]

		se := singles[int(entryIdx)%len(singles)]
		want, wantErr := scalar.Detects(test, g[0], g[1], se)
		got, gotErr := eng.Detects(test, g[0], g[1], se)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("%q × %s @ %dx%d: scalar err=%v, bitsim err=%v", notation, se.Name, g[0], g[1], wantErr, gotErr)
		}
		if wantErr == nil && want != got {
			t.Fatalf("%q × %s @ %dx%d: scalar %+v, bitsim %+v", notation, se.Name, g[0], g[1], want, got)
		}

		te := twos[int(entryIdx)%len(twos)]
		want, wantErr = scalar.DetectsTwoCell(test, g[0], g[1], te)
		got, gotErr = eng.DetectsTwoCell(test, g[0], g[1], te)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("%q × %s @ %dx%d: scalar err=%v, bitsim err=%v", notation, te.Name, g[0], g[1], wantErr, gotErr)
		}
		if wantErr == nil && want != got {
			t.Fatalf("%q × %s @ %dx%d: scalar %+v, bitsim %+v", notation, te.Name, g[0], g[1], want, got)
		}

		rows, cols := 1+int(rowsIdx)%32, 1+int(colsIdx)%32
		cg := geom{rows: rows, cols: cols, n: rows * cols}
		checkSingleClassDense(t, cg, []march.Test{test}, []march.CatalogEntry{se})
		if m := cg.n - 1; m > 0 {
			// δ ∈ [-m, -1] ∪ [1, m]: every in-array offset.
			d := int(offIdx)%(2*m) - m
			if d >= 0 {
				d++
			}
			checkTwoCellClassDense(t, cg, []march.Test{test}, []march.TwoCellCatalogEntry{te}, []int{d})
		}
	})
}
