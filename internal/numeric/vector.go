package numeric

import "math"

// MaxAbsDiff returns the largest absolute elementwise difference between
// a and b, or NaN when any difference is NaN. It panics on length
// mismatch. The Newton loop uses it as its convergence norm, so a NaN
// iterate never reads as converged.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: MaxAbsDiff length mismatch")
	}
	var max float64
	for i := range a {
		// One comparison per entry: d <= max fails when d is larger or
		// NaN, and only then does the NaN test run.
		if d := math.Abs(a[i] - b[i]); !(d <= max) {
			if math.IsNaN(d) {
				return d
			}
			max = d
		}
	}
	return max
}

// NormInf returns the infinity norm (largest absolute element) of v.
func NormInf(v []float64) float64 {
	var max float64
	for _, x := range v {
		if a := math.Abs(x); a > max {
			max = a
		}
	}
	return max
}

// Lerp linearly interpolates between a and b: a + t·(b−a).
func Lerp(a, b, t float64) float64 { return a + t*(b-a) }

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// For n == 1 it returns just lo.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		// Rounding the product on its own stops arm64 from fusing it
		// into a multiply-add, so every target yields the same grid.
		out[i] = lo + float64(float64(i)*step)
	}
	out[n-1] = hi
	return out
}

// Logspace returns n logarithmically spaced values from lo to hi
// inclusive. Both bounds must be positive.
func Logspace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("numeric: Logspace bounds must be positive")
	}
	// math.Log10 ends in a product; rounding it here keeps arm64 from
	// fusing that product into Linspace's arithmetic once both inline.
	ex := Linspace(float64(math.Log10(lo)), float64(math.Log10(hi)), n)
	for i, e := range ex {
		ex[i] = math.Pow(10, e)
	}
	if n > 0 {
		ex[0], ex[n-1] = lo, hi
	}
	return ex
}

// ApproxEqual reports whether a and b are within tol of each other,
// where tol is interpreted as an absolute tolerance.
func ApproxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
