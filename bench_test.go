package partialfaults

import (
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/memsim"
	"github.com/memtest/partialfaults/internal/numeric"
)

// The benchmark harness regenerates every exhibit of the paper's
// evaluation. Each benchmark performs the full computation per iteration
// and reports the headline numbers as custom metrics so that the
// paper-versus-measured comparison appears directly in the bench output
// (EXPERIMENTS.md records the mapping).

// fig3Grid is the sweep resolution used for the Figure 3 planes.
func fig3Grid() (rdefs, us []float64) {
	return numeric.Logspace(1e3, 1e7, 9), numeric.Linspace(0, 3.3, 12)
}

// BenchmarkFig3aBitLineOpenPlane regenerates Figure 3(a): Open 4 under
// S = 1r1. Metrics: the U ceiling below which RDF1 appears (paper: ~2 V)
// and the fraction of the plane showing the fault.
func BenchmarkFig3aBitLineOpenPlane(b *testing.B) {
	o, _ := defect.ByID(4)
	grp, _ := o.Float(defect.FloatBitLine)
	rdefs, us := fig3Grid()
	var uHigh float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plane, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: NewBehavFactory(), Open: o, Float: grp,
			SOS:   fp.NewSOS(fp.Init1, fp.R(1)),
			RDefs: rdefs, Us: us,
		})
		if err != nil {
			b.Fatal(err)
		}
		findings := analysis.IdentifyPartialFaults(plane)
		if len(findings) == 0 {
			b.Fatal("Figure 3(a) must show a partial RDF1")
		}
		for _, f := range findings {
			if f.FFM == fp.RDF1 {
				uHigh = f.UHigh
			}
		}
	}
	b.ReportMetric(uHigh, "U-ceiling-V(paper≈2)")
}

// BenchmarkTracedPlaneSweep measures the adaptive boundary-tracing
// sweep on the Figure 3(a) plane at the catalog's seed resolution
// (13×12, the service default). Metrics: the fraction of grid points
// it actually simulated and the simulation-reduction factor over a
// dense sweep of the same grid (DESIGN.md §14; the ≥5× acceptance
// target is the aggregate across all nine opens — single planes
// vary). The traced plane is bit-identical to the dense one, so the
// reduction is pure saved work.
func BenchmarkTracedPlaneSweep(b *testing.B) {
	o, _ := defect.ByID(4)
	grp, _ := o.Float(defect.FloatBitLine)
	rdefs, us := numeric.Logspace(1e3, 1e7, 13), numeric.Linspace(0, 3.3, 12)
	var stats analysis.TraceStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plane, s, err := analysis.TracePlane(analysis.TraceConfig{SweepConfig: analysis.SweepConfig{
			Factory: NewBehavFactory(), Open: o, Float: grp,
			SOS:   fp.NewSOS(fp.Init1, fp.R(1)),
			RDefs: rdefs, Us: us,
		}})
		if err != nil {
			b.Fatal(err)
		}
		if len(analysis.IdentifyPartialFaults(plane)) == 0 {
			b.Fatal("traced Figure 3(a) must show a partial RDF1")
		}
		stats = s
	}
	b.ReportMetric(float64(stats.Simulated())/float64(stats.Points()), "simulated-fraction")
	b.ReportMetric(stats.Reduction(), "reduction-x")
}

// BenchmarkFig3bCompletedSOSPlane regenerates Figure 3(b): Open 4 under
// S = 1v [w0BL] r1v. Metric: 1 when RDF1 is sensitized for every U at
// every faulty R_def (the paper's completion claim).
func BenchmarkFig3bCompletedSOSPlane(b *testing.B) {
	o, _ := defect.ByID(4)
	grp, _ := o.Float(defect.FloatBitLine)
	rdefs, us := fig3Grid()
	completed := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plane, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: NewBehavFactory(), Open: o, Float: grp,
			SOS:   fp.MustParse("<1v [w0BL] r1v/0/0>").S,
			RDefs: rdefs, Us: us,
		})
		if err != nil {
			b.Fatal(err)
		}
		completed = 0
		if analysis.IsCompletedIn(plane, fp.RDF1) {
			completed = 1
		}
	}
	b.ReportMetric(completed, "U-independent(paper=1)")
}

// BenchmarkFig4aCellOpenPlane regenerates Figure 4(a): Open 1 under
// S = 0r0. Metrics: the RDF0 onset resistance at U ≈ 1.6 V and at U = 0
// (paper: 150 kΩ and 300 kΩ).
func BenchmarkFig4aCellOpenPlane(b *testing.B) {
	o, _ := defect.ByID(1)
	grp, _ := o.Float(defect.FloatMemoryCell)
	rdefs := numeric.Logspace(1e4, 1e7, 13)
	us := []float64{0, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.3}
	var onHigh, onLow float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plane, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: NewBehavFactory(), Open: o, Float: grp,
			SOS:   fp.NewSOS(fp.Init0, fp.R(0)),
			RDefs: rdefs, Us: us,
		})
		if err != nil {
			b.Fatal(err)
		}
		var ok bool
		onHigh, ok = plane.MinRDefWithFFM(fp.RDF0, 4) // U = 1.6 V
		if !ok {
			b.Fatal("RDF0 must appear at U=1.6V")
		}
		if onLow, ok = plane.MinRDefWithFFM(fp.RDF0, 0); !ok {
			onLow = rdefs[len(rdefs)-1]
		}
		if onLow <= onHigh {
			b.Fatal("the Figure 4(a) wedge inverted: onset at U=0 must exceed onset at U=1.6V")
		}
	}
	b.ReportMetric(onHigh/1e3, "onset-kΩ@1.6V(paper=150)")
	b.ReportMetric(onLow/1e3, "onset-kΩ@0V(paper=300)")
}

// BenchmarkFig4bCompletedSOSPlane regenerates Figure 4(b): Open 1 under
// S = [w1 w1 w0] r0. Metric: the flat onset resistance at which the
// read-0 failure fires for every U (paper: 150 kΩ).
func BenchmarkFig4bCompletedSOSPlane(b *testing.B) {
	o, _ := defect.ByID(1)
	grp, _ := o.Float(defect.FloatMemoryCell)
	rdefs := numeric.Logspace(1e4, 1e7, 13)
	us := numeric.Linspace(0, 3.3, 9)
	var onset float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plane, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: NewBehavFactory(), Open: o, Float: grp,
			SOS:   fp.MustParse("<[w1 w1 w0] r0/1/1>").S,
			RDefs: rdefs, Us: us,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Above the onset row, every U must misbehave (RDF0 or, at
		// extreme resistance, its IRF0 restore-failure variant — the
		// fine structure the paper's simplified figure truncates).
		onset = 0
		for r := range rdefs {
			all := true
			for u := range us {
				pt := plane.Points[r][u]
				if !pt.Faulty {
					all = false
					break
				}
			}
			if all {
				onset = rdefs[r]
				break
			}
		}
		if onset == 0 {
			b.Fatal("completed SOS must produce a U-independent faulty band")
		}
	}
	b.ReportMetric(onset/1e3, "onset-kΩ(paper=150)")
}

// BenchmarkTable1PartialFaultInventory runs the full Section 5 pipeline
// (every simulated open, every floating group, partial-fault rule,
// completing-operation search) on a compact grid. Metrics: partial
// faults found, completions found, "Not possible" rows.
func BenchmarkTable1PartialFaultInventory(b *testing.B) {
	var found, completedN, impossible float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := analysis.BuildInventory(analysis.InventoryConfig{
			Factory: NewBehavFactory(),
			RDefs:   numeric.Logspace(1e4, 1e8, 5),
			Us:      numeric.Linspace(0, 4.6, 4),
		})
		if err != nil {
			b.Fatal(err)
		}
		found = float64(len(rows))
		completedN, impossible = 0, 0
		for _, r := range rows {
			if r.Possible {
				completedN++
			} else {
				impossible++
			}
		}
		if found == 0 || completedN == 0 || impossible == 0 {
			b.Fatal("Table 1 must contain completed and Not-possible rows")
		}
	}
	b.ReportMetric(found, "partial-faults")
	b.ReportMetric(completedN, "completed")
	b.ReportMetric(impossible, "not-possible")
}

// BenchmarkFPSpaceEnumeration regenerates the Section 4 counting
// argument: enumerate the single-cell FP space through #O = 4. Metrics:
// the 12-FP static space and the brute-force #O ≤ 4 space.
func BenchmarkFPSpaceEnumeration(b *testing.B) {
	var static, brute float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		static, brute = 0, 0
		for n := 0; n <= 4; n++ {
			fps := fp.EnumerateSingleCellFPs(n)
			if len(fps) != fp.CountSingleCellFPs(n) {
				b.Fatal("enumeration disagrees with the closed form")
			}
			if n <= 1 {
				static += float64(len(fps))
			}
			brute += float64(len(fps))
		}
	}
	b.ReportMetric(static, "static-FPs(paper=12)")
	b.ReportMetric(brute, "bruteforce-FPs(#O≤4)")
}

// BenchmarkMarchPFCoverage evaluates March PF against the completed
// partial-fault catalog of Table 1 under guarantee semantics. Metrics:
// detected completable faults and (always zero) detected
// "Not possible" faults.
func BenchmarkMarchPFCoverage(b *testing.B) {
	catalog := march.PaperFaultCatalog()
	var detected, completable, impossibleDetected float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detected, completable, impossibleDetected = 0, 0, 0
		for _, e := range catalog {
			det, _, _, err := march.Detects(march.MarchPF(), 4, 2, e.Make)
			if err != nil {
				b.Fatal(err)
			}
			if e.Uncompletable {
				if det {
					impossibleDetected++
				}
				continue
			}
			completable++
			if det {
				detected++
			}
		}
		if impossibleDetected != 0 {
			b.Fatal("no march test can detect the word-line partial faults")
		}
	}
	b.ReportMetric(detected, "detected")
	b.ReportMetric(completable, "completable")
	b.ReportMetric(impossibleDetected, "not-possible-detected(paper=0)")
}

// BenchmarkClassicalTestsMissPartialFaults quantifies the paper's
// motivating claim: classical tests that handle the plain FFMs miss the
// partial forms. Metric: partial faults missed by MATS+ (which detects
// the corresponding plain RDF/IRF faults).
func BenchmarkClassicalTestsMissPartialFaults(b *testing.B) {
	catalog := march.PaperFaultCatalog()
	var missed, total float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missed, total = 0, 0
		for _, e := range catalog {
			if e.Uncompletable {
				continue
			}
			total++
			det, _, _, err := march.Detects(march.MATSPlus(), 4, 2, e.Make)
			if err != nil {
				b.Fatal(err)
			}
			if !det {
				missed++
			}
		}
		if missed == 0 {
			b.Fatal("MATS+ must miss partial faults; that is the paper's premise")
		}
	}
	b.ReportMetric(missed, "missed-by-MATS+")
	b.ReportMetric(total, "completable-partials")
}

// BenchmarkShortsBridgesNoPartialFaults reproduces the paper's Section 2
// negative result: shorts and bridges do not restrict current flow, so
// no partial faults arise from them. Metrics: defects swept and partial
// findings (paper = 0).
func BenchmarkShortsBridgesNoPartialFaults(b *testing.B) {
	rdefs := numeric.Logspace(1e2, 1e6, 5)
	us := []float64{0, 1.65, 3.3}
	var defects, partials float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		defects, partials = 0, 0
		for _, sb := range defect.ShortsAndBridges() {
			defects++
			o := sb.AsOpenDescriptor()
			for _, sos := range analysis.StaticSOSes() {
				plane, err := analysis.SweepPlane(analysis.SweepConfig{
					Factory: NewBehavFactory(), Open: o, Float: sb.Probe,
					SOS: sos, RDefs: rdefs, Us: us,
				})
				if err != nil {
					b.Fatal(err)
				}
				partials += float64(len(analysis.IdentifyPartialFaults(plane)))
			}
		}
		if partials != 0 {
			b.Fatal("shorts/bridges must not create partial faults (Section 2)")
		}
	}
	b.ReportMetric(defects, "defects")
	b.ReportMetric(partials, "partial-findings(paper=0)")
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkBehavVsSpiceFidelity measures the cost of one full read
// operation in both engines and checks they agree on a defective probe
// point — the fidelity/speed trade the analytical model buys. The spice
// side runs on the pooled factory every production sweep uses, so an
// iteration recycles one column instead of building a netlist.
func BenchmarkBehavVsSpiceFidelity(b *testing.B) {
	o, _ := defect.ByID(4)
	grp, _ := o.Float(defect.FloatBitLine)
	sos := fp.NewSOS(fp.Init1, fp.R(1))
	b.Run("behav", func(b *testing.B) {
		f := NewBehavFactory()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := analysis.RunSOS(f, o, 1e7, grp.Nets, 0, sos)
			if err != nil {
				b.Fatal(err)
			}
			if _, faulty := analysis.ClassifyOutcome(sos, out); !faulty {
				b.Fatal("probe point must be faulty")
			}
		}
	})
	b.Run("spice", func(b *testing.B) {
		f := analysis.NewPooledSpiceFactory(dram.Default())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := analysis.RunSOS(f, o, 1e7, grp.Nets, 0, sos)
			if err != nil {
				b.Fatal(err)
			}
			if _, faulty := analysis.ClassifyOutcome(sos, out); !faulty {
				b.Fatal("probe point must be faulty")
			}
		}
	})
}

// BenchmarkDirectedVsBruteForceSearch contrasts the paper's directed
// method (static sweep + completing-operation search, Section 4) with
// the brute-force alternative of enumerating the full #O ≤ 4 FP space:
// the metric is simulations needed per approach for the Open 4 analysis.
func BenchmarkDirectedVsBruteForceSearch(b *testing.B) {
	o, _ := defect.ByID(4)
	grp, _ := o.Float(defect.FloatBitLine)
	var directedSims, bruteFPs float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := analysis.SearchCompletion(analysis.CompletionConfig{
			Factory: NewBehavFactory(), Open: o, Float: grp,
			Base:  fp.MustParse("<1r1/0/0>"),
			RDefs: []float64{1e6},
			Us:    numeric.Linspace(0, 3.3, 5),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !comp.Possible {
			b.Fatal("completion must exist")
		}
		// The directed method pays: the 12 static FPs on the sweep grid
		// plus the candidates the search actually simulated.
		directedSims = 12 + float64(comp.Tried)*5
		// Brute force would sweep every FP with #O ≤ #O_completed + 1.
		bruteFPs = float64(fp.CumulativeSingleCellFPs(4))
	}
	b.ReportMetric(directedSims, "directed-sims")
	b.ReportMetric(bruteFPs, "bruteforce-FPs")
}

// BenchmarkTechnologySensitivity is a calibration ablation: it sweeps
// the precharge window (the knob that sets the Figure 3(a) R_def
// threshold, ≈ T_pre / C_BL) and reports the measured Open 4 onset for
// each setting, demonstrating which physical parameter the axis
// placement depends on.
func BenchmarkTechnologySensitivity(b *testing.B) {
	onsetFor := func(scale float64) float64 {
		p := behav.DefaultParams()
		p.Tech.TPre *= scale
		o, _ := defect.ByID(4)
		grp, _ := o.Float(defect.FloatBitLine)
		plane, err := analysis.SweepPlane(analysis.SweepConfig{
			Factory: behav.NewFactory(p), Open: o, Float: grp,
			SOS:   fp.NewSOS(fp.Init1, fp.R(1)),
			RDefs: numeric.Logspace(1e3, 1e6, 13),
			Us:    []float64{0, 0.5},
		})
		if err != nil {
			b.Fatal(err)
		}
		onset, ok := plane.MinRDefWithFFM(fp.RDF1, 0)
		if !ok {
			b.Fatal("RDF1 must appear")
		}
		return onset
	}
	var fast, slow float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fast = onsetFor(1) // nominal 3 ns precharge
		slow = onsetFor(3) // 9 ns precharge
		if slow <= fast {
			b.Fatal("longer precharge must tolerate larger opens (higher onset)")
		}
	}
	b.ReportMetric(fast/1e3, "onset-kΩ@Tpre")
	b.ReportMetric(slow/1e3, "onset-kΩ@3×Tpre")
}

// BenchmarkSpiceOperation measures one electrical write+read pair on the
// healthy column — the substrate's unit cost. It also reports the LU
// work per pair: factorizations, those that fell back to the dense
// kernel, and rebuilds of the learned pattern (0 after the warm-up).
func BenchmarkSpiceOperation(b *testing.B) {
	col := dram.MustNewColumn(dram.Default())
	if err := col.PowerUp(); err != nil {
		b.Fatal(err)
	}
	// A write and a read of each value warm the engine up: its LU
	// pattern stops growing once every transistor on the path has
	// conducted.
	for bit := 0; bit < 2; bit++ {
		if err := col.Write(0, bit); err != nil {
			b.Fatal(err)
		}
		if _, err := col.Read(0); err != nil {
			b.Fatal(err)
		}
	}
	f0, d0, g0 := col.Engine().FactorizationCounts()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := col.Write(0, i%2); err != nil {
			b.Fatal(err)
		}
		got, err := col.Read(0)
		if err != nil {
			b.Fatal(err)
		}
		if got != i%2 {
			b.Fatalf("read %d, want %d", got, i%2)
		}
	}
	b.StopTimer()
	f1, d1, g1 := col.Engine().FactorizationCounts()
	n := float64(b.N)
	b.ReportMetric(float64(f1-f0)/n, "factorizations/op")
	b.ReportMetric(float64(d1-d0)/n, "dense-fallbacks/op")
	b.ReportMetric(float64(g1-g0)/n, "pattern-growths/op")
}

// BenchmarkBehavOperation measures the same pair on the analytical model.
func BenchmarkBehavOperation(b *testing.B) {
	m := behav.New(behav.DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(0, i%2); err != nil {
			b.Fatal(err)
		}
		got, err := m.Read(0)
		if err != nil {
			b.Fatal(err)
		}
		if got != i%2 {
			b.Fatalf("read %d, want %d", got, i%2)
		}
	}
}

// BenchmarkDynamicFaultCoverage evaluates the library against the twelve
// write-read dynamic (two-operation) FPs — the #O = 2 slice of the
// paper's Section 4 space. Known results: March RAW detects all 12,
// the classical static tests none.
func BenchmarkDynamicFaultCoverage(b *testing.B) {
	var raw, cminus float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, cminus = 0, 0
		for _, p := range memsim.DynamicFaultCatalog() {
			p := p
			mk := func(victim int) memsim.Fault {
				return memsim.Fault{Victim: victim, FP: p}
			}
			det, _, _, err := march.Detects(march.MarchRAW(), 4, 2, mk)
			if err != nil {
				b.Fatal(err)
			}
			if det {
				raw++
			}
			det, _, _, err = march.Detects(march.MarchCMinus(), 4, 2, mk)
			if err != nil {
				b.Fatal(err)
			}
			if det {
				cminus++
			}
		}
		if raw != 12 || cminus != 0 {
			b.Fatalf("dynamic coverage: RAW %v (want 12), C- %v (want 0)", raw, cminus)
		}
	}
	b.ReportMetric(raw, "MarchRAW-detected(known=12)")
	b.ReportMetric(cminus, "MarchC--detected(known=0)")
}

// BenchmarkTwoCellCoverage evaluates the march library against the full
// static two-cell (coupling) FP space — the #C = 2 dimension of the
// paper's Section 4 accounting — through the first 36 rows of each
// test's scalar two-cell certificate on a 2×2 array. Metric: FPs
// detected by March SS (published property: all 36) and by March C- (24).
func BenchmarkTwoCellCoverage(b *testing.B) {
	catalog := march.TwoCellCatalog()[:fp.CountTwoCellStaticFPs()]
	detected := func(t march.Test) float64 {
		cert, err := march.TwoCellCertificateOffsetsWith(march.ScalarEngine{}, t, catalog, 2, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		n := 0.0
		for _, r := range cert.Entries {
			if r.Detected {
				n++
			}
		}
		return n
	}
	var ss, cminus float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, cminus = detected(march.MarchSS()), detected(march.MarchCMinus())
		if ss != 36 {
			b.Fatal("March SS must detect all 36 static two-cell FPs")
		}
	}
	b.ReportMetric(ss, "MarchSS-detected(known=36)")
	b.ReportMetric(cminus, "MarchC--detected(known=24)")
}

// BenchmarkMarchTestExecution measures running March PF over a 16-cell
// faulty array — the functional simulator's unit cost.
func BenchmarkMarchTestExecution(b *testing.B) {
	entry := march.PaperFaultCatalog()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr := NewMemArray(4, 4)
		if err := arr.Inject(entry.Make(5)); err != nil {
			b.Fatal(err)
		}
		ms, err := march.MarchPF().Run(arr, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) == 0 {
			b.Fatal("March PF must catch the Open 1 completed RDF0")
		}
	}
}

// spiceSweepBench runs the electrical plane sweep that backs the
// performance-layer acceptance criterion: Open 4 under 1r1 plus the
// prefix-sharing state SOS 1, on a compact grid. The naive variant
// builds a fresh column per point; the pooled variant recycles columns
// through the reuse pool and serves shared prefixes from the replay
// tree — the configuration BuildInventory uses. The equivalence tests prove both produce
// bit-for-bit identical planes.
func spiceSweepBench(b *testing.B, pooled bool) {
	o, _ := defect.ByID(4)
	grp, _ := o.Float(defect.FloatBitLine)
	rdefs := numeric.Logspace(1e4, 1e7, 4)
	us := numeric.Linspace(0, 3.3, 4)
	soses := []fp.SOS{fp.NewSOS(fp.Init1, fp.R(1)), fp.NewSOS(fp.Init1)}
	var factory analysis.Factory
	if pooled {
		factory = analysis.NewPooledSpiceFactory(dram.Default())
	} else {
		factory = analysis.NewSpiceFactory(dram.Default())
	}
	faulty := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var replay *analysis.ReplayCache
		if pooled {
			replay = analysis.NewReplayCache(factory, o, grp.Nets)
		}
		for _, sos := range soses {
			plane, err := analysis.SweepPlane(analysis.SweepConfig{
				Factory: factory, Open: o, Float: grp, SOS: sos,
				RDefs: rdefs, Us: us,
				Replay: replay,
			})
			if err != nil {
				b.Fatal(err)
			}
			if f := plane.FaultyFraction(); f > 0 {
				faulty = f
			}
		}
		if replay != nil {
			replay.Close()
		}
		if faulty == 0 {
			b.Fatal("the bit-line open must show faults on this grid")
		}
	}
	b.ReportMetric(faulty, "faulty-fraction")
}

// BenchmarkSpicePlaneSweepNaive is the fresh-build-per-point baseline.
func BenchmarkSpicePlaneSweepNaive(b *testing.B) { spiceSweepBench(b, false) }

// BenchmarkSpicePlaneSweepPooled is the pooled + replayed sweep (the
// BuildInventory configuration).
func BenchmarkSpicePlaneSweepPooled(b *testing.B) { spiceSweepBench(b, true) }
