package partialfaults

import (
	"testing"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/stress"
)

// BenchmarkStressMatrix measures the stress-condition scenario matrix
// end to end: three operating corners (nominal, low-vdd, hot) swept
// over a reduced grid through the shared pooled pipeline, per-corner
// coverage simulated, deltas and the worst-corner certificate
// assembled. One iteration is one full matrix computed from scratch —
// the realistic first-request cost; repeated requests are the store
// layer's business, measured by BenchmarkServeLoad. Metrics:
// corners per second and certificate claims evaluated per iteration.
func BenchmarkStressMatrix(b *testing.B) {
	lowVDD, err := stress.ParseSpec("low-vdd")
	if err != nil {
		b.Fatal(err)
	}
	hot, err := stress.ParseSpec("hot")
	if err != nil {
		b.Fatal(err)
	}
	var opens []defect.Open
	for _, id := range []int{1, 5} {
		o, ok := defect.ByID(id)
		if !ok {
			b.Fatalf("no open %d", id)
		}
		opens = append(opens, o)
	}
	var tests []march.Test
	for _, mt := range march.All() {
		if mt.Name == "March PF" || mt.Name == "MATS+" {
			tests = append(tests, mt)
		}
	}

	claims := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := stress.Analyze(stress.Config{
			Corners: []stress.Spec{stress.Nominal(), lowVDD, hot},
			Opens:   opens,
			RDefs:   []float64{1e4, 1e5, 1e6},
			Us:      []float64{0, 1.1, 2.2, 3.3},
			Tests:   tests,
			Rows:    2, Cols: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		claims = len(res.Certificate.Claims)
	}
	b.StopTimer()
	b.ReportMetric(float64(3*b.N)/b.Elapsed().Seconds(), "corners/s")
	b.ReportMetric(float64(claims), "claims")
}
