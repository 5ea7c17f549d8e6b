package numeric

import (
	"errors"
	"math"
)

// ErrSingular is returned when a matrix is numerically singular and cannot
// be factorized. For MNA systems this usually indicates a floating node
// with no DC path to ground; the circuit layer guards against that with
// gmin conductances, so seeing this error normally means a malformed
// netlist.
var ErrSingular = errors.New("numeric: matrix is singular")

// Workspace is the package's LU factorization with partial pivoting: a
// reusable buffer for repeated factorizations of same-sized systems, as a
// Newton loop performs every iteration. It allocates nothing after
// construction, except when a matrix widens the learned pattern below or
// SetBase installs a base. The factors of one matrix solve any number of
// right-hand sides.
//
// A matrix reaches the workspace in one of two ways. Factorize copies in
// a finished matrix. A caller that rebuilds its matrix every iteration
// from a fixed part plus a few changing entries assembles it in the
// factor buffer instead: SetBase installs the fixed part (the base)
// together with the candidates, every position the changing entries can
// write; each Assemble copies the base into the factor buffer and hands
// it out to be written at candidate positions; FactorizeAssembled
// factorizes it in place.
//
// The workspace learns the structure of the matrices it sees. It keeps
// the fill pattern of elimination in the diagonal pivot order: the union
// of every nonzero position seen so far, closed under fill-in. Elimination
// and both triangular solves walk per-row and per-column index lists of
// that pattern instead of every entry, and the pattern is rebuilt only
// when a matrix has a nonzero entry outside it. Factorize looks for such
// an entry among all entries. SetBase learns the base's nonzeros once,
// and FactorizeAssembled then reads only the watched positions, the
// candidates still outside the pattern: every other position outside it
// holds the base's +0. On an MNA Jacobian this skips most of the dense
// kernel's multiply-subtracts. The DRAM column's 25×25 reduced system
// has 81 structural nonzeros on one cell's writes and reads (83 on both
// cells'); once both cells have run, its pattern holds 234 entries after
// fill-in, an elimination costs 581 multiply-subtracts (4 900 dense), and
// two positions stay watched.
//
// The pattern kernel is exact: it returns the bits the dense kernel
// returns. It performs every subtraction the dense kernel performs on a
// pattern entry, in the same order, with the same division for each
// multiplier, and nothing is reassociated. It skips only products with
// an exact-zero factor whose other factor is finite; subtracting such a
// ±0 product leaves an accumulator unchanged unless the accumulator is
// −0, and a sum that does not start at −0 never reaches it. A −0 in the
// matrix can therefore change only the sign of a zero factor entry,
// whose products the solves subtract from accumulators that start at the
// right-hand side. The kernel relies on three conditions and falls back
// to the dense kernel (factorizeDense and solveDense below) whenever one
// fails:
//
//   - every diagonal pivot is finite and non-zero, and no entry below it
//     has a larger (or NaN) magnitude, so partial pivoting would not swap
//     a row;
//   - the right-hand side holds no −0 and no infinity or NaN;
//   - the solution comes out finite, which implies every intermediate the
//     skipped products would have multiplied was finite.
//
// A failed pivot reruns the factorization densely at once; a failed
// right-hand side or solution reruns the saved matrix densely inside
// Solve. ErrSingular and every non-finite result therefore come out of
// the dense kernel exactly as they did before the pattern kernel existed.
type Workspace struct {
	n    int
	lu   []float64
	pivx []int
	perm []float64

	// mask has one word per matrix entry: zero inside the fill pattern,
	// all ones outside, so OR-ing Float64bits(a)&mask over a matrix is
	// zero exactly when every entry outside the pattern is +0.
	mask []uint64
	// saved is a copy of the last factorized matrix, kept for a dense
	// rerun.
	saved []float64
	// The pattern's strictly lower part by rows (forward substitution)
	// and by columns (the rows each pivot eliminates), and its strictly
	// upper part by rows (the entries each pivot row updates and back
	// substitution reads).
	lowerRows, lowerCols, upperRows indexLists

	// base is the matrix Assemble starts from (nil before SetBase),
	// assembly is lu viewed as a matrix, candidates are the positions
	// SetBase named and watch are those of them outside the pattern.
	base       []float64
	assembly   *Matrix
	candidates []int
	watch      []int

	// sparse reports that lu holds pattern-kernel factors (no row
	// swaps); otherwise it holds dense factors with pivots pivx.
	sparse bool
	// fallbacks counts dense-kernel reruns and growths pattern rebuilds
	// after construction, for benchmarks.
	fallbacks, growths uint64
}

// indexLists is n lists of indices stored back to back: list i is
// idx[ptr[i]:ptr[i+1]]. Rebuilding it reuses both buffers.
type indexLists struct {
	ptr, idx []int
}

func (l *indexLists) reset() {
	l.ptr = append(l.ptr[:0], 0)
	l.idx = l.idx[:0]
}

// end closes the list being appended to.
func (l *indexLists) end() { l.ptr = append(l.ptr, len(l.idx)) }

func (l *indexLists) list(i int) []int { return l.idx[l.ptr[i]:l.ptr[i+1]] }

// NewWorkspace creates a workspace for n×n systems.
func NewWorkspace(n int) *Workspace {
	if n <= 0 {
		panic("numeric: workspace size must be positive")
	}
	w := &Workspace{
		n:     n,
		lu:    make([]float64, n*n),
		pivx:  make([]int, n),
		perm:  make([]float64, n),
		mask:  make([]uint64, n*n),
		saved: make([]float64, n*n),
	}
	w.assembly = &Matrix{rows: n, cols: n, data: w.lu}
	for i := range w.mask {
		if i%(n+1) != 0 {
			w.mask[i] = ^uint64(0)
		}
	}
	w.buildPattern()
	return w
}

// Factorize copies the square matrix a into the workspace and LU-factorizes
// it with partial pivoting. The input matrix is not modified. It panics
// if a is not n×n.
func (w *Workspace) Factorize(a *Matrix) error {
	w.checkSize(a)
	w.learn(a.data)
	copy(w.lu, a.data)
	return w.factorize()
}

// SetBase installs base as the matrix every Assemble starts from, and
// candidates as the row-major positions (i·n + j) that the caller may
// change between Assemble and FactorizeAssembled. It learns the base's
// nonzeros at once. The workspace copies base and keeps candidates,
// which the caller must not modify. It panics if base is not n×n or a
// candidate is out of range.
func (w *Workspace) SetBase(base *Matrix, candidates []int) {
	w.checkSize(base)
	if w.base == nil {
		w.base = make([]float64, len(w.lu))
	}
	copy(w.base, base.data)
	w.candidates = candidates
	w.learn(base.data)
	w.rewatch()
}

// Assemble copies the base into the factor buffer and returns that
// buffer as a matrix, for the caller to change at candidate positions
// (a change anywhere else may go unseen by the learned pattern) before
// it calls FactorizeAssembled. The matrix is the workspace's own
// storage: factorizing overwrites it. It panics before SetBase.
func (w *Workspace) Assemble() *Matrix {
	if w.base == nil {
		panic("numeric: Assemble before SetBase")
	}
	copy(w.lu, w.base)
	return w.assembly
}

// FactorizeAssembled LU-factorizes the assembled matrix in place, with
// the result Factorize returns on a copy of it. Of the entries outside
// the learned pattern it reads only the watched candidates.
func (w *Workspace) FactorizeAssembled() error {
	var out uint64
	for _, p := range w.watch {
		out |= math.Float64bits(w.lu[p])
	}
	if out != 0 {
		w.widen(w.lu)
	}
	return w.factorize()
}

func (w *Workspace) checkSize(a *Matrix) {
	if a.Rows() != w.n || a.Cols() != w.n {
		panic("numeric: workspace dimension mismatch")
	}
}

// factorize LU-factorizes lu in place, keeping a copy for a dense rerun.
func (w *Workspace) factorize() error {
	copy(w.saved, w.lu)
	if w.eliminatePattern() {
		w.sparse = true
		return nil
	}
	return w.factorizeSavedDense()
}

// DenseFallbacks returns how many factorizations ran on the dense kernel
// because the pattern kernel's conditions did not hold.
func (w *Workspace) DenseFallbacks() uint64 { return w.fallbacks }

// PatternGrowths returns how many times a matrix widened the learned
// pattern, which the workspace then rebuilt.
func (w *Workspace) PatternGrowths() uint64 { return w.growths }

// learn widens the pattern when data has a nonzero entry outside it. Any
// entry whose bits are not those of +0 counts as nonzero, −0 included.
func (w *Workspace) learn(data []float64) {
	mask := w.mask[:len(data)]
	var out uint64
	for i, v := range data {
		out |= math.Float64bits(v) & mask[i]
	}
	if out != 0 {
		w.widen(data)
	}
}

// widen adds every nonzero entry of data to the pattern and rebuilds it.
func (w *Workspace) widen(data []float64) {
	for i, v := range data {
		if math.Float64bits(v) != 0 {
			w.mask[i] = 0
		}
	}
	w.growths++
	w.buildPattern()
	w.rewatch()
}

// rewatch lists the candidates outside the pattern.
func (w *Workspace) rewatch() {
	w.watch = w.watch[:0]
	for _, p := range w.candidates {
		if w.mask[p] != 0 {
			w.watch = append(w.watch, p)
		}
	}
}

// buildPattern closes the mask under fill-in (eliminating pivot k joins
// every pattern row below it to every pattern column right of it) and
// rebuilds the index lists from it.
func (w *Workspace) buildPattern() {
	n, mask := w.n, w.mask
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if mask[i*n+k] != 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				if mask[k*n+j] == 0 {
					mask[i*n+j] = 0
				}
			}
		}
	}
	w.lowerRows.reset()
	w.upperRows.reset()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if mask[i*n+j] != 0 {
				continue
			}
			switch {
			case j < i:
				w.lowerRows.idx = append(w.lowerRows.idx, j)
			case j > i:
				w.upperRows.idx = append(w.upperRows.idx, j)
			}
		}
		w.lowerRows.end()
		w.upperRows.end()
	}
	w.lowerCols.reset()
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if mask[i*n+k] == 0 {
				w.lowerCols.idx = append(w.lowerCols.idx, i)
			}
		}
		w.lowerCols.end()
	}
}

// eliminatePattern runs the elimination over the pattern lists, in place
// on lu, and reports false as soon as a pivot is one partial pivoting
// might not keep (see the Workspace doc); lu is then garbage.
func (w *Workspace) eliminatePattern() bool {
	n, lu := w.n, w.lu
	for k := 0; k < n; k++ {
		rowK := lu[k*n : k*n+n]
		pivot := rowK[k]
		max := math.Abs(pivot)
		if !(max > 0) || max > math.MaxFloat64 {
			return false
		}
		cols := w.upperRows.list(k)
		for _, i := range w.lowerCols.list(k) {
			rowI := lu[i*n : i*n+n]
			v := rowI[k]
			if !(math.Abs(v) <= max) {
				return false
			}
			m := v / pivot
			rowI[k] = m
			if m == 0 {
				continue
			}
			for _, j := range cols {
				rowI[j] -= float64(m * rowK[j])
			}
		}
	}
	return true
}

// factorizeSavedDense factorizes the saved matrix on the dense kernel.
func (w *Workspace) factorizeSavedDense() error {
	w.sparse = false
	w.fallbacks++
	copy(w.lu, w.saved)
	return w.factorizeDense()
}

// factorizeDense LU-factorizes lu in place with partial pivoting over
// every entry. It is the reference the pattern kernel must reproduce.
func (w *Workspace) factorizeDense() error {
	n := w.n
	lu := w.lu
	for i := range w.pivx {
		w.pivx[i] = i
	}
	for k := 0; k < n; k++ {
		p, max := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) {
			return ErrSingular
		}
		if p != k {
			rp, rk := lu[p*n:p*n+n], lu[k*n:k*n+n]
			for c := range rp {
				rp[c], rk[c] = rk[c], rp[c]
			}
			w.pivx[p], w.pivx[k] = w.pivx[k], w.pivx[p]
		}
		pivot := lu[k*n+k]
		rowK := lu[k*n : k*n+n]
		for i := k + 1; i < n; i++ {
			rowI := lu[i*n : i*n+n]
			m := rowI[k] / pivot
			rowI[k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowI[j] -= float64(m * rowK[j])
			}
		}
	}
	return nil
}

// Solve writes the solution of the factorized system for right-hand side
// b into x. b and x may alias. It panics on length mismatch.
func (w *Workspace) Solve(b, x []float64) {
	n := w.n
	if len(b) != n || len(x) != n {
		panic("numeric: workspace Solve dimension mismatch")
	}
	if w.sparse {
		// perm keeps b, which x may alias, for a dense rerun.
		copy(w.perm, b)
		if solvable(w.perm) && w.solvePattern(x) {
			return
		}
		// The pattern kernel already eliminated this matrix with the
		// pivots partial pivoting chooses, so the dense kernel cannot
		// fail on it.
		if err := w.factorizeSavedDense(); err != nil {
			panic("numeric: dense rerun of a pattern-factorized matrix failed: " + err.Error())
		}
		copy(x, w.perm)
		b = x
	}
	w.solveDense(b, x)
}

// solvable reports whether the pattern kernel may solve for b: no entry
// is −0, infinite or NaN.
func solvable(b []float64) bool {
	for _, v := range b {
		if math.Float64bits(v) == 1<<63 || v-v != 0 {
			return false
		}
	}
	return true
}

// solvePattern substitutes over the pattern lists from the right-hand
// side in perm and reports whether x came out finite.
func (w *Workspace) solvePattern(x []float64) bool {
	n, lu := w.n, w.lu
	copy(x, w.perm)
	for i := 1; i < n; i++ {
		row := lu[i*n : i*n+n]
		s := x[i]
		for _, j := range w.lowerRows.list(i) {
			s -= float64(row[j] * x[j])
		}
		x[i] = s
	}
	finite := 0.0
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : i*n+n]
		s := x[i]
		for _, j := range w.upperRows.list(i) {
			s -= float64(row[j] * x[j])
		}
		x[i] = s / row[i]
		finite += x[i] - x[i]
	}
	return finite == 0
}

// solveDense substitutes over every entry of dense factors. b and x may
// alias.
func (w *Workspace) solveDense(b, x []float64) {
	n := w.n
	lu := w.lu
	for i := 0; i < n; i++ {
		w.perm[i] = b[w.pivx[i]]
	}
	copy(x, w.perm)
	for i := 1; i < n; i++ {
		row := lu[i*n : i*n+n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= float64(row[j] * x[j])
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : i*n+n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= float64(row[j] * x[j])
		}
		x[i] = s / row[i]
	}
}
