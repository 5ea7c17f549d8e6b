package numeric

import (
	"math"
	"math/rand"
	"testing"
)

func TestWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ws := NewWorkspace(6)
	for trial := 0; trial < 5; trial++ {
		a := randomDiagDominant(rng, 6)
		b := make([]float64, 6)
		for i := range b {
			b[i] = rng.Float64()
		}
		if err := ws.Factorize(a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := make([]float64, 6)
		ws.Solve(b, x)
		if d := MaxAbsDiff(a.MulVec(x), b); !(d <= 1e-9) {
			t.Errorf("trial %d: residual %g too large", trial, d)
		}
	}
}

func TestWorkspaceSingular(t *testing.T) {
	ws := NewWorkspace(2)
	if err := ws.Factorize(NewMatrix(2, 2)); err != ErrSingular {
		t.Errorf("Factorize(zero) err = %v, want ErrSingular", err)
	}
}

func TestWorkspaceDimensionMismatchPanics(t *testing.T) {
	ws := NewWorkspace(3)
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	_ = ws.Factorize(NewMatrix(2, 2))
}

func BenchmarkWorkspaceFactorize50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomDiagDominant(rng, 50)
	ws := NewWorkspace(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Factorize(a); err != nil {
			b.Fatal(err)
		}
	}
}

// denseOracle factorizes a on the dense kernel of a fresh workspace: the
// reference every pattern-kernel result must match bit for bit.
func denseOracle(a *Matrix) (*Workspace, error) {
	w := NewWorkspace(a.Rows())
	copy(w.lu, a.data)
	return w, w.factorizeDense()
}

// checkMatchesDense factorizes a on ws and solves for each b, comparing
// the error with == and x with Float64bits against the dense oracle.
// alias solves in place (x and b the same slice).
func checkMatchesDense(t *testing.T, ws *Workspace, a *Matrix, bs [][]float64, alias bool) {
	t.Helper()
	checkFactorized(t, ws, a, ws.Factorize(a), bs, alias)
}

// assembly is one factorization through the assembled entry point:
// SetBase(base, cands) when base is non-nil, then Assemble, then writes
// (row-major position → value, each at a candidate, assigned so that a
// −0 lands as −0), then FactorizeAssembled.
type assembly struct {
	base   *Matrix
	cands  []int
	writes map[int]float64
}

// checkAssembledMatchesDense runs one assembly on ws and holds it to the
// dense oracle on the matrix it assembled.
func checkAssembledMatchesDense(t *testing.T, ws *Workspace, s assembly, bs [][]float64, alias bool) {
	t.Helper()
	if s.base != nil {
		ws.SetBase(s.base, s.cands)
	}
	m := ws.Assemble()
	for p, v := range s.writes {
		m.Data()[p] = v
	}
	a := m.Clone()
	checkFactorized(t, ws, a, ws.FactorizeAssembled(), bs, alias)
}

// checkFactorized compares ws, which has just factorized a with error
// err, and its solves for each b with the dense oracle.
func checkFactorized(t *testing.T, ws *Workspace, a *Matrix, err error, bs [][]float64, alias bool) {
	t.Helper()
	oracle, want := denseOracle(a)
	if err != want {
		t.Fatalf("factorize err = %v, dense kernel %v\n%s", err, want, a)
	}
	if err != nil {
		return
	}
	n := a.Rows()
	for _, b := range bs {
		got := make([]float64, n)
		if alias {
			copy(got, b)
			ws.Solve(got, got)
		} else {
			ws.Solve(b, got)
		}
		wantX := make([]float64, n)
		oracle.solveDense(b, wantX)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(wantX[i]) {
				t.Fatalf("x[%d] = %v (%#x), dense kernel %v (%#x); b = %v\n%s",
					i, got[i], math.Float64bits(got[i]), wantX[i], math.Float64bits(wantX[i]), b, a)
			}
		}
	}
}

func matrixOf(rows ...[]float64) *Matrix {
	a := NewMatrix(len(rows), len(rows))
	for i, r := range rows {
		copy(a.Row(i), r)
	}
	return a
}

// TestWorkspaceMatchesDense holds the pattern kernel to the dense kernel
// on inputs built to hit each of its fallback conditions, plus pattern
// growth and a repeated matrix on a shared workspace, through Factorize
// and through the assembled entry point.
func TestWorkspaceMatchesDense(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	// pos is the row-major position of (i, j) in a 3×3 matrix.
	pos := func(i, j int) int { return i*3 + j }
	// A DC base and its transient successor, which adds a capacitor's
	// coupling between nodes 1 and 2; a nonlinear element stamps the
	// top-left 2×2 block.
	dc := matrixOf(
		[]float64{2, -1, 0},
		[]float64{-1, 2, 0},
		[]float64{0, 0, 1},
	)
	tran := matrixOf(
		[]float64{2, -1, 0},
		[]float64{-1, 3, -1},
		[]float64{0, -1, 2},
	)
	block := []int{pos(0, 0), pos(0, 1), pos(1, 0), pos(1, 1)}
	b3 := [][]float64{{1, -2, 0.5}, {0, 0, 0}, {negZero, 1, 0}, {inf, 1, 0}, {nan, 0, 1}}
	b2 := [][]float64{{1, -2}, {0, 0}, {negZero, 3}, {-inf, 1}}
	tridiag := matrixOf(
		[]float64{4, 1, 0},
		[]float64{1, 4, 1},
		[]float64{0, 1, 4},
	)
	cases := []struct {
		name string
		// seq are factorized with Factorize, then asm are assembled.
		seq []*Matrix
		asm []assembly
		bs  [][]float64
		// sparse: the pattern kernel must have solved every
		// finite, −0-free right-hand side without a dense rerun.
		sparse bool
		// fallbacks and growths, when non-zero, are the dense reruns and
		// pattern rebuilds the sequence must end with.
		fallbacks, growths uint64
	}{
		{name: "no fallback", seq: []*Matrix{tridiag}, bs: b3[:2], sparse: true},
		{name: "swap mid-elimination", seq: []*Matrix{matrixOf(
			[]float64{4, 1, 0},
			[]float64{1, 0.1, 2},
			[]float64{0, 5, 1},
		)}, bs: b3},
		{name: "zero diagonal", seq: []*Matrix{matrixOf(
			[]float64{0, 1},
			[]float64{1, 0},
		)}, bs: b2},
		{name: "NaN above the diagonal", seq: []*Matrix{matrixOf(
			[]float64{1, nan},
			[]float64{0, 1},
		)}, bs: b2},
		{name: "NaN below the diagonal", seq: []*Matrix{matrixOf(
			[]float64{1, 0},
			[]float64{nan, 1},
		)}, bs: b2},
		{name: "NaN pivot", seq: []*Matrix{matrixOf(
			[]float64{nan, 1},
			[]float64{0, 1},
		)}, bs: b2},
		{name: "infinite pivot", seq: []*Matrix{matrixOf(
			[]float64{inf, 1},
			[]float64{1, 1},
		)}, bs: b2},
		{name: "infinities off the diagonal", seq: []*Matrix{matrixOf(
			[]float64{1, -inf, 0},
			[]float64{0, 2, inf},
			[]float64{0, 0, 3},
		)}, bs: b3},
		{name: "-0 in the matrix", seq: []*Matrix{matrixOf(
			[]float64{2, 0, 0},
			[]float64{-1, 3, negZero},
			[]float64{negZero, 0, 4},
		)}, bs: b3[:2], sparse: true},
		{name: "-0 in b under a negative pivot", seq: []*Matrix{matrixOf(
			[]float64{-2, 0},
			[]float64{0, 3},
		)}, bs: [][]float64{{1, negZero}}},
		{name: "overflow in forward substitution", seq: []*Matrix{matrixOf(
			[]float64{1, 0, 0},
			[]float64{-1, 1, 0},
			[]float64{0, 0, 1},
		)}, bs: [][]float64{{1e308, 1e308, 1}}},
		{name: "solution overflows", seq: []*Matrix{matrixOf(
			[]float64{1e-300, 0},
			[]float64{0, 1},
		)}, bs: [][]float64{{1e10, 1}, {1, 1}}},
		{name: "singular after elimination", seq: []*Matrix{matrixOf(
			[]float64{2, 1},
			[]float64{1, 0.5},
		)}, bs: b2},
		{name: "singular with a swap", seq: []*Matrix{matrixOf(
			[]float64{1, 2},
			[]float64{2, 4},
		)}, bs: b2},
		{name: "pattern growth", seq: []*Matrix{
			tridiag,
			matrixOf(
				[]float64{4, 1, 0.5},
				[]float64{1, 4, 1},
				[]float64{0, 1, 4},
			),
			matrixOf(
				[]float64{4, 1, 0.5},
				[]float64{1, 4, 1},
				[]float64{-0.25, 1, 4},
			),
		}, bs: b3[:2], sparse: true},
		{name: "repeat after growth", seq: []*Matrix{
			tridiag,
			matrixOf(
				[]float64{4, 0, 0},
				[]float64{1, 4, 1},
				[]float64{2, 1, 4},
			),
			matrixOf(
				[]float64{4, 0, 0},
				[]float64{1, 4, 1},
				[]float64{2, 1, 4},
			),
			tridiag,
		}, bs: b3[:2], sparse: true},
		{name: "swap then no swap on one workspace", seq: []*Matrix{
			matrixOf(
				[]float64{1, 3},
				[]float64{3, 1},
			),
			matrixOf(
				[]float64{3, 1},
				[]float64{1, 3},
			),
		}, bs: b2},
		{name: "assembled growth at a watched position", asm: []assembly{
			// The base learns the tridiagonal pattern (growth 1); the
			// first assembly writes inside it, the next two at a watched
			// corner each (growths 2 and 3).
			{base: tridiag, cands: []int{pos(1, 1), pos(0, 2), pos(2, 0)}, writes: map[int]float64{pos(1, 1): 5}},
			{writes: map[int]float64{pos(1, 1): 5, pos(0, 2): 0.5}},
			{writes: map[int]float64{pos(0, 2): 0.5, pos(2, 0): -0.25}},
		}, bs: b3[:2], sparse: true, growths: 3},
		{name: "assembled second base widens the pattern", asm: []assembly{
			{base: dc, cands: block, writes: map[int]float64{pos(0, 0): 2.5, pos(0, 1): -1.5}},
			{base: tran, cands: block, writes: map[int]float64{pos(0, 0): 2.5, pos(1, 0): -1.5}},
			{writes: map[int]float64{pos(1, 1): 3.5}},
		}, bs: b3[:2], sparse: true, growths: 2},
		{name: "assembled -0 at a watched position", asm: []assembly{
			{base: tridiag, cands: []int{pos(2, 0), pos(0, 2)}},
			{writes: map[int]float64{pos(2, 0): negZero}},
			{writes: map[int]float64{pos(2, 0): negZero, pos(0, 2): 1}},
		}, bs: b3[:2], sparse: true, growths: 3},
		{name: "assembled dense fallback then pattern", asm: []assembly{
			// A subdiagonal entry larger than its pivot makes partial
			// pivoting swap, so the first assembly runs densely; the
			// next one, on the same base, runs on the pattern again.
			{base: tridiag, cands: []int{pos(1, 0), pos(1, 1)}, writes: map[int]float64{pos(1, 0): 9}},
			{writes: map[int]float64{pos(1, 1): 6}},
		}, bs: b3[:2], fallbacks: 1, growths: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := 0
			if len(tc.seq) > 0 {
				n = tc.seq[0].Rows()
			} else {
				n = tc.asm[0].base.Rows()
			}
			for _, alias := range []bool{false, true} {
				ws := NewWorkspace(n)
				for _, a := range tc.seq {
					checkMatchesDense(t, ws, a, tc.bs, alias)
				}
				for _, s := range tc.asm {
					checkAssembledMatchesDense(t, ws, s, tc.bs, alias)
				}
				if tc.sparse && ws.DenseFallbacks() != 0 {
					t.Errorf("alias=%v: %d dense fallbacks, want the pattern kernel throughout", alias, ws.DenseFallbacks())
				}
				if tc.fallbacks != 0 && ws.DenseFallbacks() != tc.fallbacks {
					t.Errorf("alias=%v: %d dense fallbacks, want %d", alias, ws.DenseFallbacks(), tc.fallbacks)
				}
				if tc.growths != 0 && ws.PatternGrowths() != tc.growths {
					t.Errorf("alias=%v: %d pattern growths, want %d", alias, ws.PatternGrowths(), tc.growths)
				}
			}
		})
	}
}

// fuzzBytes hands out fuzz input bytes, zeros once they run out.
type fuzzBytes []byte

func (f *fuzzBytes) next() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

// entry draws a sparse matrix or vector entry: mostly exact zeros, some
// special values, the rest small dyadic numbers scaled up on the diagonal
// so that the pattern kernel's no-swap path runs often.
func (f *fuzzBytes) entry(diag bool) float64 {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, -1e300, 1e-300}
	k := f.next()
	switch {
	case k < 128:
		return 0
	case k < 136:
		return specials[int(f.next())%len(specials)]
	}
	v := float64(int8(f.next())) / 16
	if diag {
		v *= 64
	}
	return v
}

// FuzzWorkspaceMatchesDense draws sequences of 1–4 sparse matrices of
// order ≤ 12 sharing one workspace, with 1–2 right-hand sides each, and
// holds the workspace to the dense kernel bit for bit. Each matrix goes
// through Factorize, or is split at random into a base and candidates
// and assembled, or (once a base is installed) is a fresh draw of the
// candidate entries assembled on that base, as a Newton iteration is.
func FuzzWorkspaceMatchesDense(f *testing.F) {
	f.Add([]byte{2, 1, 200, 9, 0, 0, 200, 5, 1, 0})
	f.Add([]byte{5, 3, 200, 7, 129, 3, 200, 100, 0, 200, 1, 200, 8, 0, 255, 200, 3})
	f.Add([]byte{11, 2, 200, 1, 200, 2, 0, 0, 200, 3, 130, 1, 200, 4})
	f.Add([]byte{6, 3, 4, 200, 7, 129, 3, 200, 100, 0, 200, 1, 5, 200, 9, 200, 8, 0, 255, 200, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + int(in.next())%12
		mats := 1 + int(in.next())%4
		ws := NewWorkspace(n)
		var a *Matrix
		var cands []int // of the installed base; nil before SetBase
		fresh := func(diag func(p int) bool) *Matrix {
			a := NewMatrix(n, n)
			for p := range a.data {
				a.data[p] = in.entry(diag(p))
			}
			return a
		}
		isDiag := func(p int) bool { return p%(n+1) == 0 }
		for m := 0; m < mats; m++ {
			op := in.next()
			var s *assembly
			switch {
			case op%4 == 1:
				// A random split: the candidates are a pseudo-random
				// subset of positions whose assembled values replace
				// the base's.
				a = fresh(isDiag)
				rng := rand.New(rand.NewSource(int64(in.next())))
				cands = cands[:0:0]
				s = &assembly{base: fresh(isDiag), writes: map[int]float64{}}
				for p, v := range a.data {
					if rng.Intn(3) == 0 {
						cands = append(cands, p)
						s.writes[p] = v
					} else {
						s.base.data[p] = v
					}
				}
				s.cands = cands
			case op%4 == 2 && cands != nil:
				s = &assembly{writes: map[int]float64{}}
				for _, p := range cands {
					s.writes[p] = in.entry(isDiag(p))
				}
			case a == nil || op%4 != 0:
				// A fresh matrix; otherwise the previous one repeats.
				a = fresh(isDiag)
			}
			bs := make([][]float64, 1+int(in.next())%2)
			for r := range bs {
				bs[r] = make([]float64, n)
				for i := range bs[r] {
					bs[r][i] = in.entry(false)
				}
			}
			alias := in.next()%2 == 0
			if s != nil {
				checkAssembledMatchesDense(t, ws, *s, bs, alias)
			} else {
				checkMatchesDense(t, ws, a, bs, alias)
			}
		}
	})
}
