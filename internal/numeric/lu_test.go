package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The LU's basic properties, on Workspace: the package's one
// factorization.

// solveSystem factorizes a on a fresh workspace and solves a·x = b.
func solveSystem(a *Matrix, b []float64) ([]float64, error) {
	ws := NewWorkspace(a.Rows())
	if err := ws.Factorize(a); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	ws.Solve(b, x)
	return x, nil
}

func TestFactorizeSolveIdentity(t *testing.T) {
	n := 4
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{1, -2, 3.5, 0}
	x, err := solveSystem(a, b)
	if err != nil {
		t.Fatalf("solveSystem: %v", err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Errorf("x[%d] = %g, want %g", i, x[i], b[i])
		}
	}
}

func TestFactorizeSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := solveSystem(a, []float64{5, 10})
	if err != nil {
		t.Fatalf("solveSystem: %v", err)
	}
	if !ApproxEqual(x[0], 1, 1e-12) || !ApproxEqual(x[1], 3, 1e-12) {
		t.Errorf("got x = %v, want [1 3]", x)
	}
}

func TestFactorizeRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := solveSystem(a, []float64{2, 3})
	if err != nil {
		t.Fatalf("solveSystem: %v", err)
	}
	if !ApproxEqual(x[0], 3, 1e-12) || !ApproxEqual(x[1], 2, 1e-12) {
		t.Errorf("got x = %v, want [3 2]", x)
	}
}

func TestFactorizeSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if err := NewWorkspace(2).Factorize(a); err != ErrSingular {
		t.Errorf("Factorize(singular) err = %v, want ErrSingular", err)
	}
}

func TestFactorizeDoesNotModifyInput(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 3)
	a.Set(1, 0, 6)
	a.Set(1, 1, 3)
	orig := a.Clone()
	if err := NewWorkspace(2).Factorize(a); err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if a.At(i, j) != orig.At(i, j) {
				t.Fatalf("input modified at (%d,%d)", i, j)
			}
		}
	}
}

func TestLUReuseMultipleRHS(t *testing.T) {
	a := randomDiagDominant(rand.New(rand.NewSource(7)), 5)
	ws := NewWorkspace(5)
	if err := ws.Factorize(a); err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	for trial := 0; trial < 4; trial++ {
		b := make([]float64, 5)
		for i := range b {
			b[i] = float64(trial*5 + i)
		}
		x := make([]float64, 5)
		ws.Solve(b, x)
		back := a.MulVec(x)
		if d := MaxAbsDiff(back, b); !(d <= 1e-9) {
			t.Errorf("trial %d: A·x differs from b by %g", trial, d)
		}
	}
}

// randomDiagDominant builds a well-conditioned random matrix: random
// entries with a dominant diagonal, mimicking the structure of MNA
// conductance matrices.
func randomDiagDominant(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.Float64()*2 - 1
			a.Set(i, j, v)
			rowSum += math.Abs(v)
		}
		a.Set(i, i, rowSum+1+rng.Float64())
	}
	return a
}

// TestSolveRoundTripProperty: for random diagonally dominant A and random
// b, solving then multiplying back recovers b.
func TestSolveRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomDiagDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*20 - 10
		}
		x, err := solveSystem(a, b)
		if err != nil {
			return false
		}
		return MaxAbsDiff(a.MulVec(x), b) < 1e-8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
