package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaxAbsDiff(t *testing.T) {
	if d := MaxAbsDiff([]float64{1, 2, 3}, []float64{1, 4, 2.5}); d != 2 {
		t.Errorf("MaxAbsDiff = %g, want 2", d)
	}
	if d := MaxAbsDiff(nil, nil); d != 0 {
		t.Errorf("MaxAbsDiff(nil,nil) = %g, want 0", d)
	}
	// A NaN difference anywhere, before or after the largest finite one,
	// is the norm: a > comparison alone would skip it.
	nan := math.NaN()
	for _, c := range [][2][]float64{
		{{nan, 1, 5}, {0, 1, 0}},
		{{0, 1, 5}, {0, nan, 0}},
		{{0, 1, 5}, {0, 1, nan}},
		{{math.Inf(1), 1}, {math.Inf(1), 1}},
	} {
		if d := MaxAbsDiff(c[0], c[1]); !math.IsNaN(d) {
			t.Errorf("MaxAbsDiff(%v, %v) = %g, want NaN", c[0], c[1], d)
		}
	}
}

func TestNormInf(t *testing.T) {
	if n := NormInf([]float64{-4, 2, 3}); n != 4 {
		t.Errorf("NormInf = %g, want 4", n)
	}
	if n := NormInf(nil); n != 0 {
		t.Errorf("NormInf(nil) = %g, want 0", n)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 3, 3},
		{-1, 0, 3, 0},
		{2, 0, 3, 2},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%g,%g,%g) = %g, want %g", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestLerp(t *testing.T) {
	if v := Lerp(0, 10, 0.25); v != 2.5 {
		t.Errorf("Lerp = %g, want 2.5", v)
	}
}

func TestLinspace(t *testing.T) {
	v := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(v) != len(want) {
		t.Fatalf("len = %d, want %d", len(v), len(want))
	}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-15 {
			t.Errorf("v[%d] = %g, want %g", i, v[i], want[i])
		}
	}
	if one := Linspace(3, 9, 1); len(one) != 1 || one[0] != 3 {
		t.Errorf("Linspace n=1 = %v, want [3]", one)
	}
	if z := Linspace(0, 1, 0); z != nil {
		t.Errorf("Linspace n=0 = %v, want nil", z)
	}
}

func TestLogspace(t *testing.T) {
	v := Logspace(10, 1000, 3)
	want := []float64{10, 100, 1000}
	for i := range want {
		if math.Abs(v[i]-want[i])/want[i] > 1e-12 {
			t.Errorf("v[%d] = %g, want %g", i, v[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Logspace with non-positive bound should panic")
		}
	}()
	Logspace(0, 1, 3)
}

// Property: Linspace endpoints are exact and the sequence is monotone.
func TestLinspaceMonotoneProperty(t *testing.T) {
	prop := func(a, b float64, nRaw uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e12 || math.Abs(b) > 1e12 {
			return true // avoid overflow in (b−a); out of scope for circuit values
		}
		if a > b {
			a, b = b, a
		}
		n := 2 + int(nRaw%30)
		v := Linspace(a, b, n)
		if v[0] != a || v[n-1] != b {
			return false
		}
		for i := 1; i < n; i++ {
			if v[i] < v[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
