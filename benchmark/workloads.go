package main

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/numeric"
	"github.com/memtest/partialfaults/internal/report"
	"github.com/memtest/partialfaults/internal/stress"
)

// parallelism is the pipeline parallelism of every workload, and
// GOMAXPROCS of every child process. It is fixed, not read from the
// host, so that runs on different hosts do the same work the same way.
const parallelism = 2

// Sizes: "full" is what the benchmark measures; "small" runs the same
// code on reduced inputs for the package tests.
const (
	sizeFull  = "full"
	sizeSmall = "small"
)

// workload is one named set of inputs. Batch workloads build a batchJob;
// the serve workload (batch == nil) is driven by serve.go.
type workload struct {
	name  string
	batch func(size string) (batchJob, error)
}

// workloads are the benchmark's workloads; BENCHMARK.json and the README
// give the reason for each. Their inputs are the paper's fixed inputs;
// only the serve stream is drawn from the seed.
var workloads = []workload{
	{"table1-behav", table1Behav},
	{"table1-spice", table1Spice},
	{"stress-corners", stressCorners},
	{"march-bitplane", marchBitplane},
	{serveWorkload, nil},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// batchJob is one batch workload at one size.
type batchJob struct {
	// run executes one repetition, traced when tr is non-nil, and
	// returns the library result.
	run func(tr *tracer) (any, error)
	// view converts the result to the report.To*JSON value whose
	// json.Marshal encoding the golden digest pins.
	view func(any) any
	// points is swept planes × grid points, the base of
	// analysis.ops_per_point; 0 when the repetition sweeps no plane.
	points int
	// self names the layer the repetition calls into; the repetition's
	// self time (wall time outside every traced call) is reported under
	// "<self>.self_frac".
	self string
}

// The batch sizes aim at repetitions of a few hundred milliseconds, so
// that a run holds dozens of them and its median rides out the host's
// noise. Opens 1, 5 and 6 are left out of the inventories: their
// completion searches alone take most of a second.

func table1Behav(size string) (batchJob, error) {
	opens := opensByID(4, 9)
	rdefs, us := numeric.Logspace(1e3, 1e7, 7), numeric.Linspace(0, 3.3, 6)
	if size == sizeSmall {
		opens = opensByID(4)
		rdefs, us = numeric.Logspace(1e3, 1e7, 4), numeric.Linspace(0, 3.3, 3)
	}
	return inventoryJob("behav", behav.NewFactory(behav.DefaultParams()), opens, rdefs, us), nil
}

func table1Spice(size string) (batchJob, error) {
	opens := opensByID(4, 7)
	rdefs, us := numeric.Logspace(1e4, 1e7, 3), numeric.Linspace(0, 3.3, 2)
	if size == sizeSmall {
		opens = opensByID(4)
		rdefs, us = numeric.Logspace(1e4, 1e7, 2), numeric.Linspace(0, 3.3, 2)
	}
	return inventoryJob("spice", analysis.NewPooledSpiceFactory(dram.Default()), opens, rdefs, us), nil
}

func inventoryJob(layer string, f analysis.Factory, opens []defect.Open, rdefs, us []float64) batchJob {
	return batchJob{
		run: func(tr *tracer) (any, error) {
			rows, err := analysis.BuildInventory(analysis.InventoryConfig{
				Factory: tr.factory(layer, f),
				Opens:   opens,
				RDefs:   rdefs, Us: us,
				Parallelism: parallelism,
			})
			return rows, err
		},
		view:   func(v any) any { return report.ToInventoryJSON(v.([]analysis.Row)) },
		points: planes(opens) * len(rdefs) * len(us),
		self:   "analysis",
	}
}

func stressCorners(size string) (batchJob, error) {
	spec, opens := "nominal;low-vdd;hot", opensByID(4, 9)
	rdefs, us := numeric.Logspace(1e3, 1e7, 4), numeric.Linspace(0, 3.3, 3)
	if size == sizeSmall {
		spec, opens = "nominal;hot", opensByID(4)
		rdefs, us = numeric.Logspace(1e3, 1e7, 3), numeric.Linspace(0, 3.3, 3)
	}
	corners, err := stress.ParseSpecs(spec)
	if err != nil {
		return batchJob{}, err
	}
	return batchJob{
		run: func(tr *tracer) (any, error) {
			res, err := stress.Analyze(stress.Config{
				Corners: corners,
				Opens:   opens,
				RDefs:   rdefs, Us: us,
				Rows: 4, Cols: 2,
				MarchEngine: tr.engine(march.ScalarEngine{}),
				Parallelism: parallelism,
			})
			return res, err
		},
		view:   func(v any) any { return report.ToStressJSON(v.(*stress.Result)) },
		points: len(corners) * planes(opens) * len(rdefs) * len(us),
		self:   "stress",
	}, nil
}

// bitplaneJSON is the march-bitplane output: the coverage matrix and the
// two-cell certificate.
type bitplaneJSON struct {
	Coverage []report.CoverageRowJSON      `json:"coverage"`
	TwoCell  report.TwoCellCertificateJSON `json:"twocell"`
}

type bitplaneResult struct {
	coverage []march.CoverageResult
	twoCell  march.TwoCellCertificate
}

func marchBitplane(size string) (batchJob, error) {
	rows, cols := 256, 256
	if size == sizeSmall {
		rows, cols = 64, 64
	}
	tests, catalog, pairs := march.All(), march.PaperFaultCatalog(), march.TwoCellCatalog()
	offsets := []int{1, -1, cols, -cols}
	return batchJob{
		run: func(tr *tracer) (any, error) {
			eng := tr.engine(bitsim.New())
			cov, err := march.CoverageMatrixWith(eng, tests, catalog, rows, cols)
			if err != nil {
				return nil, err
			}
			cert, err := march.TwoCellCertificateOffsetsWith(eng, march.MarchSS(), pairs, rows, cols, offsets)
			if err != nil {
				return nil, err
			}
			return bitplaneResult{cov, cert}, nil
		},
		view: func(v any) any {
			r := v.(bitplaneResult)
			return bitplaneJSON{report.ToCoverageJSON(r.coverage), report.ToTwoCellCertificateJSON(r.twoCell)}
		},
		self: "march",
	}, nil
}

func opensByID(ids ...int) []defect.Open {
	var out []defect.Open
	for _, id := range ids {
		o, ok := defect.ByID(id)
		if !ok {
			panic(fmt.Sprintf("benchmark: open %d is not in the catalog", id))
		}
		out = append(out, o)
	}
	return out
}

// planes counts the (open, floating group, static SOS) planes the
// inventory pipeline sweeps.
func planes(opens []defect.Open) int {
	n := 0
	for _, o := range opens {
		n += len(o.Floats)
	}
	return n * len(analysis.StaticSOSes())
}
