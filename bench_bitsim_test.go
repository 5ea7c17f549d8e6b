package partialfaults

import (
	"testing"

	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/march"
)

// The bit-plane versus scalar engine pair below is the performance
// acceptance exhibit for the bit-plane march engine: the same March PF ×
// partial-fault evaluation, once over the address classes of a megabit
// array and once cell-at-a-time at the largest geometry the scalar
// oracle can sustain inside a benchmark budget. EXPERIMENTS.md records
// the per-cell speedup the two cells/s metrics imply.

// bitsimBenchEntry is the completed partial read fault the engine
// benchmarks evaluate — a Table 1 row March PF exists to catch.
func bitsimBenchEntry() march.CatalogEntry { return march.PaperFaultCatalog()[0] }

// BenchmarkBitsimMarchPF evaluates March PF against a completed partial
// fault over a 1024×1024 (1 Mi-cell) array — all victims × all 16
// ⇕-order assignments — on the bit-plane engine.
func BenchmarkBitsimMarchPF(b *testing.B) {
	const rows, cols = 1024, 1024
	test := march.MarchPF()
	entry := bitsimBenchEntry()
	eng := bitsim.New()
	b.ReportAllocs()
	b.ResetTimer()
	var det march.Detection
	for i := 0; i < b.N; i++ {
		var err error
		det, err = eng.Detects(test, rows, cols, entry)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(rows*cols)/secs, "cells/s")
	b.ReportMetric(float64(det.Caught), "caught")
	b.ReportMetric(float64(det.Scenarios), "scenarios")
}

// BenchmarkBitsimCoverage is one march-bitplane benchmark repetition in
// process: the coverage matrix of the 11 library tests × the 16 paper
// faults, then the March SS two-cell certificate at offsets ±1 and
// ±cols, on a 256×256 array. Its allocs/op show what the engine pays
// per call, which the matrix makes 176 times and the certificate 44.
func BenchmarkBitsimCoverage(b *testing.B) {
	const rows, cols = 256, 256
	tests, catalog, pairs := march.All(), march.PaperFaultCatalog(), march.TwoCellCatalog()
	offsets := []int{1, -1, cols, -cols}
	eng := bitsim.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := march.CoverageMatrixWith(eng, tests, catalog, rows, cols); err != nil {
			b.Fatal(err)
		}
		if _, err := march.TwoCellCertificateOffsetsWith(eng, march.MarchSS(), pairs, rows, cols, offsets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemsimMarchPF is the scalar baseline at 16×16 — the walk ×
// victims × assignments product grows as N², which is exactly why the
// megabit geometry above is out of the oracle's reach.
func BenchmarkMemsimMarchPF(b *testing.B) {
	const rows, cols = 16, 16
	test := march.MarchPF()
	entry := bitsimBenchEntry()
	eng := march.ScalarEngine{}
	b.ReportAllocs()
	b.ResetTimer()
	var det march.Detection
	for i := 0; i < b.N; i++ {
		var err error
		det, err = eng.Detects(test, rows, cols, entry)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(rows*cols)/secs, "cells/s")
	b.ReportMetric(float64(det.Caught), "caught")
	b.ReportMetric(float64(det.Scenarios), "scenarios")
}
