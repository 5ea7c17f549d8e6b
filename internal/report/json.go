package report

import (
	"math"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/lint"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/netlint"
)

// This file holds the machine-readable counterparts of the markdown and
// ASCII writers: typed JSON views of every pipeline result, shared by
// the analysis service (responses and store payloads) and the CLIs.
// Each To*JSON builder returns a plain DTO — no maps keyed by
// non-strings, no NaN/Inf — so json.Marshal can never fail on it, and
// round-tripping through the persistent store is loss-free.

// InventoryRowJSON is one Table 1 row.
type InventoryRowJSON struct {
	SimFFM    string `json:"sim_ffm"`
	ComFFM    string `json:"com_ffm"`
	Open      string `json:"open"`
	OpenID    int    `json:"open_id"`
	Float     string `json:"float"`
	Possible  bool   `json:"possible"`
	Completed string `json:"completed"`
}

// ToInventoryJSON converts the inventory to its JSON view.
func ToInventoryJSON(rows []analysis.Row) []InventoryRowJSON {
	out := make([]InventoryRowJSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, InventoryRowJSON{
			SimFFM: r.SimFFM.String(), ComFFM: r.ComFFM.String(),
			Open: r.Open.Name(), OpenID: r.Open.ID,
			Float: string(r.Float), Possible: r.Possible,
			Completed: r.CompletedString(),
		})
	}
	return out
}

// CoverageRowJSON is one (test, fault) coverage cell.
type CoverageRowJSON struct {
	Test      string `json:"test"`
	Fault     string `json:"fault"`
	Partial   bool   `json:"partial"`
	Detected  bool   `json:"detected"`
	Caught    int    `json:"caught"`
	Scenarios int    `json:"scenarios"`
	Engine    string `json:"engine,omitempty"`
}

// ToCoverageJSON converts a coverage matrix to its JSON view.
func ToCoverageJSON(results []march.CoverageResult) []CoverageRowJSON {
	out := make([]CoverageRowJSON, 0, len(results))
	for _, r := range results {
		out = append(out, CoverageRowJSON{
			Test: r.Test, Fault: r.Fault, Partial: r.Partial,
			Detected: r.Detected, Caught: r.Caught, Scenarios: r.Scenarios,
			Engine: r.Engine,
		})
	}
	return out
}

// TwoCellCertRowJSON is one certificate row.
type TwoCellCertRowJSON struct {
	Entry      string `json:"entry"`
	Class      string `json:"class"`
	Partial    bool   `json:"partial"`
	ProvedMiss bool   `json:"proved_miss"`
	Reason     string `json:"reason,omitempty"`
	Detected   bool   `json:"detected"`
	Caught     int    `json:"caught"`
	Scenarios  int    `json:"scenarios"`
	Engine     string `json:"engine,omitempty"`
}

// TwoCellCertificateJSON is the certificate's JSON view, violations
// precomputed so API consumers need not re-derive the soundness check.
type TwoCellCertificateJSON struct {
	Test       string               `json:"test"`
	Rows       int                  `json:"rows"`
	Cols       int                  `json:"cols"`
	Offsets    []int                `json:"offsets,omitempty"`
	Entries    []TwoCellCertRowJSON `json:"entries"`
	Violations []string             `json:"violations,omitempty"`
}

// ToTwoCellCertificateJSON converts a certificate to its JSON view.
func ToTwoCellCertificateJSON(c march.TwoCellCertificate) TwoCellCertificateJSON {
	out := TwoCellCertificateJSON{Test: c.Test, Rows: c.Rows, Cols: c.Cols, Offsets: c.Offsets}
	for _, r := range c.Entries {
		out.Entries = append(out.Entries, TwoCellCertRowJSON{
			Entry: r.Entry, Class: r.Class.String(), Partial: r.Partial,
			ProvedMiss: r.ProvedMiss, Reason: r.Reason,
			Detected: r.Detected, Caught: r.Caught, Scenarios: r.Scenarios,
			Engine: r.Engine,
		})
	}
	for _, v := range c.Violations() {
		out.Violations = append(out.Violations, v.Entry)
	}
	return out
}

// DetectionRowJSON is one (test, fault) cell of the static detection
// matrix.
type DetectionRowJSON struct {
	Test          string `json:"test"`
	Fault         string `json:"fault"`
	TwoCell       bool   `json:"two_cell"`
	Partial       bool   `json:"partial"`
	Uncompletable bool   `json:"uncompletable"`
	Verdict       string `json:"verdict"`
	Trace         string `json:"trace,omitempty"`
	Witness       string `json:"witness,omitempty"`
	Scenarios     int    `json:"scenarios"`
	Detecting     int    `json:"detecting"`
}

// DetectionMatrixJSON is the matrix's JSON view with the verdict tally
// precomputed.
type DetectionMatrixJSON struct {
	Tests    []string           `json:"tests"`
	Rows     []DetectionRowJSON `json:"rows"`
	Detects  int                `json:"detects"`
	Misses   int                `json:"misses"`
	Unknowns int                `json:"unknowns"`
}

// ToDetectionMatrixJSON converts a detection matrix to its JSON view.
func ToDetectionMatrixJSON(m march.DetectionMatrix) DetectionMatrixJSON {
	out := DetectionMatrixJSON{Tests: m.Tests}
	out.Detects, out.Misses, out.Unknowns = m.Counts()
	for _, r := range m.Rows {
		row := DetectionRowJSON{
			Test: r.Test, Fault: r.Fault,
			TwoCell: r.TwoCell, Partial: r.Partial, Uncompletable: r.Uncompletable,
			Verdict: r.Proof.Verdict.String(), Witness: r.Proof.Witness,
			Scenarios: r.Proof.Scenarios, Detecting: r.Proof.Detecting,
		}
		if r.Proof.Trace != nil {
			row.Trace = r.Proof.Trace.String()
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// jsonVolt converts a possibly-NaN voltage to a nullable JSON value
// (json.Marshal rejects NaN).
func jsonVolt(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// DriveJSON is a Thevenin drive conductance: Ideal for an anchored
// endpoint (+Inf), otherwise the finite value in siemens.
type DriveJSON struct {
	Ideal   bool    `json:"ideal,omitempty"`
	Siemens float64 `json:"siemens"`
}

func toDriveJSON(g float64) DriveJSON {
	if math.IsInf(g, 1) {
		return DriveJSON{Ideal: true}
	}
	return DriveJSON{Siemens: g}
}

// MergedClassJSON is one hard-merged net class, with per-phase verdicts
// flattened into parallel maps keyed by phase name.
type MergedClassJSON struct {
	Name     string              `json:"name"`
	Nets     []string            `json:"nets"`
	Supplies []string            `json:"supplies,omitempty"`
	Verdicts map[string]string   `json:"verdicts"`
	Anchors  map[string][]string `json:"anchors,omitempty"`
}

// WeakSideJSON is one endpoint of a weak bridge.
type WeakSideJSON struct {
	Net     string               `json:"net"`
	Anchors map[string][]string  `json:"anchors,omitempty"`
	Drive   map[string]DriveJSON `json:"drive"`
	Volts   map[string]*float64  `json:"volts"`
}

// WeakMergeJSON is one weak (sub-cutoff resistive) bridge analysis.
type WeakMergeJSON struct {
	Elem     string                `json:"elem"`
	Ohms     float64               `json:"ohms"`
	A        WeakSideJSON          `json:"a"`
	B        WeakSideJSON          `json:"b"`
	Verdicts map[string]string     `json:"verdicts"`
	Volts    map[string][]*float64 `json:"volts"`
}

// MergePredictionJSON is the net-merge prover verdict in JSON form.
type MergePredictionJSON struct {
	Elems           []string          `json:"elems"`
	Phases          []string          `json:"phases"`
	Classes         []MergedClassJSON `json:"classes,omitempty"`
	Weak            []WeakMergeJSON   `json:"weak,omitempty"`
	PrimaryFloats   []string          `json:"primary_floats,omitempty"`
	SecondaryFloats []string          `json:"secondary_floats,omitempty"`
	UnknownFloats   []string          `json:"unknown_floats,omitempty"`
}

func toWeakSideJSON(s netlint.WeakSide, phases []string) WeakSideJSON {
	out := WeakSideJSON{
		Net: s.Net, Anchors: s.Anchors,
		Drive: map[string]DriveJSON{}, Volts: map[string]*float64{},
	}
	for _, ph := range phases {
		out.Drive[ph] = toDriveJSON(s.Conductance[ph])
		out.Volts[ph] = jsonVolt(s.Volts[ph])
	}
	return out
}

// ToMergePredictionJSON converts a merge prediction to its JSON view,
// mapping NaN voltages to null and infinite conductances to the Ideal
// flag so the result always marshals.
func ToMergePredictionJSON(p netlint.MergePrediction) MergePredictionJSON {
	out := MergePredictionJSON{
		Elems: p.Elems, Phases: p.Phases,
		PrimaryFloats:   p.Floats.Primary,
		SecondaryFloats: p.Floats.Secondary,
		UnknownFloats:   p.Floats.Unknown,
	}
	for _, mc := range p.Classes {
		jc := MergedClassJSON{
			Name: mc.Name, Nets: mc.Nets, Supplies: mc.Supplies,
			Verdicts: map[string]string{}, Anchors: mc.Anchors,
		}
		for _, ph := range p.Phases {
			jc.Verdicts[ph] = mc.Verdicts[ph].String()
		}
		out.Classes = append(out.Classes, jc)
	}
	for _, wm := range p.Weak {
		jw := WeakMergeJSON{
			Elem: wm.Elem, Ohms: wm.Ohms,
			A: toWeakSideJSON(wm.A, p.Phases), B: toWeakSideJSON(wm.B, p.Phases),
			Verdicts: map[string]string{}, Volts: map[string][]*float64{},
		}
		for _, ph := range p.Phases {
			jw.Verdicts[ph] = wm.Verdicts[ph].String()
			v := wm.Volts[ph]
			jw.Volts[ph] = []*float64{jsonVolt(v[0]), jsonVolt(v[1])}
		}
		out.Weak = append(out.Weak, jw)
	}
	return out
}

// FindingJSON is one static-analysis finding.
type FindingJSON struct {
	Layer    string `json:"layer"`
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Subject  string `json:"subject"`
	Message  string `json:"message"`
}

// ToFindingsJSON converts findings at or above minSev to JSON form.
func ToFindingsJSON(fs lint.Findings, minSev lint.Severity) []FindingJSON {
	shown := fs.AtLeast(minSev)
	out := make([]FindingJSON, 0, len(shown))
	for _, f := range shown {
		out = append(out, FindingJSON{
			Layer: f.Layer, Rule: f.Rule, Severity: f.Severity.String(),
			Subject: f.Subject, Message: f.Message,
		})
	}
	return out
}
