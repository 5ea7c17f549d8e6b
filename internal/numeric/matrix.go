// Package numeric provides the small linear-algebra kernel used by the
// circuit simulator: dense matrices, LU factorization with partial
// pivoting (Workspace), and vector helpers.
//
// The modified-nodal-analysis (MNA) systems produced by the DRAM column
// netlists in this repository are small (tens of unknowns), so matrices
// stay in dense storage. They are sparse all the same: the column's
// reduced 25×25 Jacobian has 81 structural nonzeros on one cell's writes
// and reads (83 on both cells'), and after both cells have run its
// pattern holds 234 entries after fill-in and an elimination costs 581
// multiply-subtracts. Workspace
// therefore learns the fill pattern of the matrices it sees and
// eliminates over that pattern only, bit-identical to the dense kernel,
// which it keeps as its fallback for pivoting and non-finite cases. It
// is the one LU in the repository. netlint's weak-merge Thevenin solve
// hands it finished matrices. The transient engine's Newton loop
// assembles each Jacobian in its factor buffer over a base (the static
// stamp, whose nonzeros the workspace learns once per dt regime) and the
// workspace then checks only the watched positions: those the nonlinear
// stamps can write that are still outside the pattern.
package numeric

import "fmt"

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
// It panics if rows or cols is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("numeric: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j. MNA stamping is additive,
// so this is the primitive the circuit stamps use.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

// Zero resets all elements to zero, keeping the allocation.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Row returns the storage slice of row i. Writing through it mutates the
// matrix; it is the fast path used by the simulator's assembly and
// reduction loops, which touch every row once per Newton iteration and
// cannot afford per-element bounds checks.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("numeric: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the matrix storage in row-major order: entry (i, j) is
// Data()[i*Cols()+j]. Writing through it mutates the matrix. The reduced
// MNA stamps use it, having already mapped their indices into range.
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes y = m·x. It panics on dimension mismatch.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("numeric: MulVec dimension mismatch")
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += float64(v * x[j])
		}
		y[i] = s
	}
	return y
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("% .6g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("numeric: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}
