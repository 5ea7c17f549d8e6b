package march

import (
	"errors"
	"fmt"
)

// ErrEngineUnsupported marks a (backend, fault entry) combination the
// backend deliberately does not model. Engines wrap it so harnesses can
// distinguish "this backend cannot evaluate this entry" (fall back to
// the scalar oracle) from a real failure (abort). The bit-plane
// engine's line-mediated CFst entries are the canonical case.
var ErrEngineUnsupported = errors.New("march: engine does not support this fault entry")

// Detection is one (test, fault family, geometry) detection result
// under guarantee semantics: Detected means every (victim,
// order-assignment) scenario — and every (victim, aggressor) pair for
// coupling faults — produced at least one mismatch; Caught/Scenarios is
// the partial count. (The prover's three-valued Verdict is a different,
// static notion.)
type Detection struct {
	Detected          bool
	Caught, Scenarios int
}

// Engine evaluates march-test fault detection on a geometry. The scalar
// memsim-backed engine is the semantic oracle; alternative backends
// (the bit-plane engine in internal/bitsim) must produce identical
// verdicts on every shared geometry, which the differential equivalence
// suite enforces. Abstracting the runner here lets the coverage matrix,
// the differential tests and the fuzz targets swap backends without
// duplicating the march walk.
type Engine interface {
	// Name identifies the backend in reports and diagnostics.
	Name() string
	// Detects evaluates a single-cell catalog entry over all victims and
	// ⇕-order assignments.
	Detects(t Test, rows, cols int, e CatalogEntry) (Detection, error)
	// DetectsTwoCell evaluates a two-cell catalog entry over all ordered
	// (victim, aggressor) pairs and ⇕-order assignments.
	DetectsTwoCell(t Test, rows, cols int, e TwoCellCatalogEntry) (Detection, error)
}

// ScalarEngine is the cell-at-a-time reference backend: every scenario
// runs the full march walk on a fresh memsim array with the fault
// injected. Exact but O(N²·len) per fault family — the differential
// oracle, not the production path.
type ScalarEngine struct{}

// Name identifies the backend.
func (ScalarEngine) Name() string { return "memsim" }

// Detects evaluates a single-cell entry with the scalar simulator.
func (ScalarEngine) Detects(t Test, rows, cols int, e CatalogEntry) (Detection, error) {
	det, caught, total, err := Detects(t, rows, cols, e.Make)
	return Detection{Detected: det, Caught: caught, Scenarios: total}, err
}

// DetectsTwoCell evaluates a two-cell entry with the scalar simulator.
func (ScalarEngine) DetectsTwoCell(t Test, rows, cols int, e TwoCellCatalogEntry) (Detection, error) {
	det, caught, total, err := DetectsTwoCellEntry(t, rows, cols, e)
	return Detection{Detected: det, Caught: caught, Scenarios: total}, err
}

// DetectsTwoCellOffsets evaluates a two-cell entry restricted to the
// given aggressor offsets with the scalar simulator; it implements
// TwoCellOffsetEngine.
func (ScalarEngine) DetectsTwoCellOffsets(t Test, rows, cols int, e TwoCellCatalogEntry, offsets []int) (Detection, error) {
	det, caught, total, err := DetectsTwoCellEntryOffsets(t, rows, cols, e, offsets)
	return Detection{Detected: det, Caught: caught, Scenarios: total}, err
}

// TwoCellOffsetEngine is the optional engine extension for
// neighborhood-restricted two-cell evaluation (aggressor = victim + δ
// for δ in a caller-chosen set — ±1 and ±cols cover physical
// neighbors). Both the scalar and the bit-plane engines implement it.
type TwoCellOffsetEngine interface {
	Engine
	DetectsTwoCellOffsets(t Test, rows, cols int, e TwoCellCatalogEntry, offsets []int) (Detection, error)
}

// CoverageMatrixWith evaluates every test against every catalog entry
// on a rows×cols array using the given backend. An entry the backend
// reports as ErrEngineUnsupported is re-evaluated with the scalar
// oracle instead of aborting the whole matrix; the row's Engine field
// records which backend produced it.
func CoverageMatrixWith(eng Engine, tests []Test, catalog []CatalogEntry, rows, cols int) ([]CoverageResult, error) {
	var out []CoverageResult
	for _, t := range tests {
		for _, e := range catalog {
			engine := eng.Name()
			v, err := eng.Detects(t, rows, cols, e)
			if errors.Is(err, ErrEngineUnsupported) {
				engine = ScalarEngine{}.Name()
				v, err = ScalarEngine{}.Detects(t, rows, cols, e)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %s × %s: %w", engine, t.Name, e.Name, err)
			}
			out = append(out, CoverageResult{
				Test: t.Name, Fault: e.Name, Partial: e.Partial,
				Detected: v.Detected, Caught: v.Caught, Scenarios: v.Scenarios,
				Engine: engine,
			})
		}
	}
	return out, nil
}

// TwoCellCertificateWith builds the two-cell certificate for one test
// and geometry using the given backend for the exhaustive simulation
// half (the static column is backend-independent). Entries the
// backend does not support (ErrEngineUnsupported — e.g. line-mediated
// CFst under the bit-plane engine) fall back to the scalar oracle
// per-entry, so one such entry no longer aborts the whole certificate;
// each row's Engine field records the backend that evaluated it.
func TwoCellCertificateWith(eng Engine, t Test, catalog []TwoCellCatalogEntry, rows, cols int) (TwoCellCertificate, error) {
	return twoCellCertificate(eng, t, catalog, rows, cols, nil)
}

// TwoCellCertificateOffsetsWith is TwoCellCertificateWith restricted to
// the given aggressor offsets (aggressor = victim + δ). The engine must
// implement TwoCellOffsetEngine — both ScalarEngine and the bit-plane
// engine do — unless every entry falls back. A nil/empty offsets slice
// means the full pair space.
func TwoCellCertificateOffsetsWith(eng Engine, t Test, catalog []TwoCellCatalogEntry, rows, cols int, offsets []int) (TwoCellCertificate, error) {
	return twoCellCertificate(eng, t, catalog, rows, cols, offsets)
}

func twoCellCertificate(eng Engine, t Test, catalog []TwoCellCatalogEntry, rows, cols int, offsets []int) (TwoCellCertificate, error) {
	cert := TwoCellCertificate{Test: t.Name, Rows: rows, Cols: cols, Offsets: offsets}
	detect := func(eng Engine, e TwoCellCatalogEntry) (Detection, error) {
		if len(offsets) == 0 {
			return eng.DetectsTwoCell(t, rows, cols, e)
		}
		oe, ok := eng.(TwoCellOffsetEngine)
		if !ok {
			return Detection{}, fmt.Errorf("march: engine %s cannot restrict aggressor offsets: %w", eng.Name(), ErrEngineUnsupported)
		}
		return oe.DetectsTwoCellOffsets(t, rows, cols, e, offsets)
	}
	for _, e := range catalog {
		cannot, why := cannotCompleteTwoCell(t, e)
		engine := eng.Name()
		v, err := detect(eng, e)
		if errors.Is(err, ErrEngineUnsupported) {
			engine = ScalarEngine{}.Name()
			v, err = detect(ScalarEngine{}, e)
		}
		if err != nil {
			return cert, fmt.Errorf("%s: %s × %s: %w", engine, t.Name, e.Name, err)
		}
		cert.Entries = append(cert.Entries, TwoCellCertRow{
			Entry: e.Name, Class: e.FP.Classify(), Partial: e.Partial,
			ProvedMiss: cannot, Reason: why,
			Detected: v.Detected, Caught: v.Caught, Scenarios: v.Scenarios,
			Engine: engine,
		})
	}
	return cert, nil
}
