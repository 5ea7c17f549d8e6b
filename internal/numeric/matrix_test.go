package numeric

import (
	"strings"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Errorf("At(1,2) = %g, want 4.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 5 {
		t.Errorf("after Add, At(1,2) = %g, want 5", got)
	}
	m.Zero()
	if got := m.At(1, 2); got != 0 {
		t.Errorf("after Zero, At(1,2) = %g, want 0", got)
	}
}

func TestMatrixCloneIndependence(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [1 2 3; 4 5 6] · [1 1 1] = [6 15]
	vals := [][]float64{{1, 2, 3}, {4, 5, 6}}
	for i, row := range vals {
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	y := m.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", y)
	}
}

func TestMatrixPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"bad dims", func() { NewMatrix(0, 3) }},
		{"index out of range", func() { NewMatrix(2, 2).At(2, 0) }},
		{"negative index", func() { NewMatrix(2, 2).Set(-1, 0, 1) }},
		{"mulvec mismatch", func() { NewMatrix(2, 2).MulVec([]float64{1}) }},
		{"factorize non-square", func() { NewWorkspace(2).Factorize(NewMatrix(2, 3)) }}, //nolint:errcheck
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestMatrixString(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 1.5)
	if s := m.String(); !strings.Contains(s, "1.5") {
		t.Errorf("String() = %q does not contain element", s)
	}
}
