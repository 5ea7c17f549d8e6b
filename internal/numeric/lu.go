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

// LU holds an LU factorization with partial pivoting of a square matrix,
// PA = LU. It can be reused to solve for multiple right-hand sides.
type LU struct {
	lu   *Matrix
	pivx []int
	n    int
}

// Factorize computes the LU factorization of the square matrix a with
// partial (row) pivoting. The input matrix is not modified.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		panic("numeric: Factorize requires a square matrix")
	}
	n := a.Rows()
	f := &LU{lu: a.Clone(), pivx: make([]int, n), n: n}
	for i := range f.pivx {
		f.pivx[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Find the pivot: largest magnitude in column k at or below row k.
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) {
			return nil, ErrSingular
		}
		if p != k {
			f.swapRows(p, k)
			f.pivx[p], f.pivx[k] = f.pivx[k], f.pivx[p]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, float64(-m*lu.At(k, j)))
			}
		}
	}
	return f, nil
}

func (f *LU) swapRows(i, j int) {
	for c := 0; c < f.n; c++ {
		vi, vj := f.lu.At(i, c), f.lu.At(j, c)
		f.lu.Set(i, c, vj)
		f.lu.Set(j, c, vi)
	}
}

// Solve returns x such that A·x = b for the factorized A.
// It panics if len(b) does not match the matrix dimension.
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic("numeric: Solve dimension mismatch")
	}
	x := make([]float64, f.n)
	// Apply the permutation: x = P·b.
	perm := make([]int, f.n)
	for to := range perm {
		perm[to] = f.pivx[to]
	}
	for i := 0; i < f.n; i++ {
		x[i] = b[perm[i]]
	}
	// Forward substitution, L has an implicit unit diagonal.
	for i := 1; i < f.n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= float64(f.lu.At(i, j) * x[j])
		}
	}
	// Back substitution.
	for i := f.n - 1; i >= 0; i-- {
		for j := i + 1; j < f.n; j++ {
			x[i] -= float64(f.lu.At(i, j) * x[j])
		}
		x[i] /= f.lu.At(i, i)
	}
	return x
}

// SolveSystem factorizes a and solves a·x = b in one call.
func SolveSystem(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
