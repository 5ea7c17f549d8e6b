package stress

import (
	"reflect"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/march"
)

// TestStressMatrixDifferential is the harness's ground truth: the
// nominal corner of a stress matrix must be bit-identical to running
// the plain pipeline directly — analysis.BuildInventory for the rows,
// march.CoverageMatrixWith for the coverage — because the nominal
// derivation is the identity. Checked for both inventory engines and
// both march backends; any divergence means the stress axis changed
// the physics it claims merely to organize.
func TestStressMatrixDifferential(t *testing.T) {
	lowVDD, _ := ParseSpec("low-vdd")
	cases := []struct {
		name      string
		engine    string
		marchEng  march.Engine
		rdefs, us []float64
	}{
		{"behav-memsim", "behav", march.ScalarEngine{}, []float64{1e4, 1e6}, []float64{0, 1.5, 3.3}},
		{"behav-bitsim", "behav", bitsim.New(), []float64{1e4, 1e6}, []float64{0, 1.5, 3.3}},
		{"spice-memsim", "spice", march.ScalarEngine{}, []float64{1e4, 1e6}, []float64{0, 3.3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opens := opensByID(t, 1, 5)
			tests := testsNamed(t, "March PF")
			res, err := Analyze(Config{
				Corners: []Spec{Nominal(), lowVDD},
				Engine:  tc.engine, MarchEngine: tc.marchEng,
				Opens: opens, RDefs: tc.rdefs, Us: tc.us,
				Tests: tests, Rows: 2, Cols: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.MarchEngineName != tc.marchEng.Name() {
				t.Fatalf("march engine recorded as %q", res.MarchEngineName)
			}

			// The direct path: same grid, no stress package involved.
			var factory analysis.Factory
			var model analysis.Fingerprint
			switch tc.engine {
			case "behav":
				p := behav.DefaultParams()
				factory, model = behav.NewFactory(p), behav.Fingerprint(p)
			case "spice":
				tech := dram.Default()
				factory = analysis.NewPooledSpiceFactory(tech)
				model, err = analysis.SpiceFingerprint(tech)
				if err != nil {
					t.Fatal(err)
				}
			}
			if res.Nominal().Model != model {
				t.Fatalf("nominal model %s, want base %s", res.Nominal().Model, model)
			}
			direct, err := analysis.BuildInventory(analysis.InventoryConfig{
				Factory: factory,
				Opens:   opens, RDefs: tc.rdefs, Us: tc.us,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Nominal().Rows, direct) {
				t.Fatal("nominal corner inventory differs from direct BuildInventory")
			}

			injectable := make([]march.CatalogEntry, 0, len(direct))
			for _, e := range CatalogFromRows(direct) {
				if ok, _ := Injectable(e); ok {
					injectable = append(injectable, e)
				}
			}
			directCov, err := march.CoverageMatrixWith(tc.marchEng, tests, injectable, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Nominal().Coverage, directCov) {
				t.Fatal("nominal corner coverage differs from direct CoverageMatrixWith")
			}
		})
	}
}

// TestStressCertificateSound replays the worst-corner certificate
// against exhaustive scalar simulation: every made claim must hold at
// every corner where the family exists, on the certificate geometry
// and on larger ones — zero false claims. The minimum-claim floor
// keeps the test honest: a regression that silently withholds
// everything would otherwise pass vacuously.
func TestStressCertificateSound(t *testing.T) {
	lowVDD, _ := ParseSpec("low-vdd")
	weak, _ := ParseSpec("weak-precharge")
	tests := testsNamed(t, "March PF", "MATS+")
	res, err := Analyze(Config{
		Corners: []Spec{Nominal(), lowVDD, weak},
		Opens:   opensByID(t, 1, 5),
		RDefs:   []float64{1e4, 1e6},
		Us:      []float64{0, 1.5, 3.3},
		Tests:   tests, Rows: 2, Cols: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	testByName := map[string]march.Test{}
	for _, mt := range tests {
		testByName[mt.Name] = mt
	}
	entriesByCorner := make([]map[string]march.CatalogEntry, len(res.Corners))
	for ci, run := range res.Corners {
		entriesByCorner[ci] = map[string]march.CatalogEntry{}
		for _, e := range run.Catalog {
			entriesByCorner[ci][e.Name] = e
		}
	}

	verified := 0
	for _, cl := range res.Certificate.Claims {
		if !cl.Claimed {
			continue
		}
		mt := testByName[cl.Test]
		for ci, run := range res.Corners {
			e, present := entriesByCorner[ci][cl.Family]
			if !present {
				continue
			}
			if e.Uncompletable {
				t.Fatalf("claim %s × %s made over an uncompletable entry at corner %s",
					cl.Test, cl.Family, run.Spec.Name)
			}
			if why, bad := run.Uninjectable[cl.Family]; bad {
				t.Fatalf("claim %s × %s made over an uninjectable entry at corner %s: %s",
					cl.Test, cl.Family, run.Spec.Name, why)
			}
			for _, geom := range [][2]int{{2, 2}, {2, 4}, {4, 4}} {
				det, err := march.ScalarEngine{}.Detects(mt, geom[0], geom[1], e)
				if err != nil {
					t.Fatalf("%s × %s at %s on %dx%d: %v",
						cl.Test, cl.Family, run.Spec.Name, geom[0], geom[1], err)
				}
				if !det.Detected {
					t.Fatalf("FALSE CLAIM: %s × %s escapes at corner %s on %dx%d (%d/%d)",
						cl.Test, cl.Family, run.Spec.Name, geom[0], geom[1],
						det.Caught, det.Scenarios)
				}
			}
		}
		verified++
	}
	// Measured on this config: 4 of 50 claims hold (the reduced grid
	// completes few families, and MATS+ proves little). The floor
	// guards against a regression that withholds wholesale, with slack
	// for legitimate physics shifts.
	const minVerified = 3
	if verified < minVerified {
		t.Fatalf("only %d claims verified (want ≥ %d of %d)",
			verified, minVerified, len(res.Certificate.Claims))
	}
	t.Logf("verified %d of %d claims across %d corners", verified, len(res.Certificate.Claims), len(res.Corners))
}
