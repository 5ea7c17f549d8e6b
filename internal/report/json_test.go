package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/lint"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/netlint"
)

func TestWriteInventoryJSON(t *testing.T) {
	opens := defect.SimulatedOpens()
	rows := []analysis.Row{
		{
			SimFFM: fp.RDF1, ComFFM: fp.RDF0, Open: opens[0],
			Float: defect.FloatBitLine, Possible: true,
			Completed: fp.MustNew(fp.NewSOS(fp.Init1, fp.CWBL(0), fp.R(1)), 0, fp.ReadResultOf(0)),
		},
		{SimFFM: fp.TFUp, ComFFM: fp.TFDown, Open: opens[1], Float: defect.FloatWordLine},
	}
	buf, err := json.Marshal(ToInventoryJSON(rows))
	if err != nil {
		t.Fatal(err)
	}
	var got []InventoryRowJSON
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d rows", len(got))
	}
	if got[0].SimFFM != "RDF1" || !got[0].Possible || got[0].Open != opens[0].Name() {
		t.Fatalf("row 0 = %+v", got[0])
	}
	if got[1].Completed != "Not possible" || got[1].Possible {
		t.Fatalf("row 1 = %+v", got[1])
	}
}

func TestWriteCoverageJSON(t *testing.T) {
	buf, err := json.Marshal(ToCoverageJSON([]march.CoverageResult{
		{Test: "MATS+", Fault: "SF0", Detected: true, Caught: 8, Scenarios: 8, Engine: "bitsim"},
		{Test: "MATS+", Fault: "CFst x", Partial: true, Caught: 3, Scenarios: 8, Engine: "memsim"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var got []CoverageRowJSON
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got[0].Engine != "bitsim" || got[1].Engine != "memsim" || !got[1].Partial {
		t.Fatalf("engines/flags lost: %+v", got)
	}
}

func TestWriteTwoCellCertificateJSON(t *testing.T) {
	cert := march.TwoCellCertificate{
		Test: "MATS+", Rows: 4, Cols: 4, Offsets: []int{1, -1},
		Entries: []march.TwoCellCertRow{
			{Entry: "CFds a", Class: fp.CFds, Detected: true, Caught: 4, Scenarios: 4, Engine: "bitsim"},
			{Entry: "CFst b", Class: fp.CFst, ProvedMiss: true, Caught: 1, Scenarios: 4, Engine: "memsim"},
		},
	}
	buf, err := json.Marshal(ToTwoCellCertificateJSON(cert))
	if err != nil {
		t.Fatal(err)
	}
	var got TwoCellCertificateJSON
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Rows != 4 || len(got.Offsets) != 2 || len(got.Entries) != 2 {
		t.Fatalf("shape lost: %+v", got)
	}
	// The proved-miss-yet-caught row is a soundness violation and must
	// surface in the precomputed list.
	if len(got.Violations) != 1 || got.Violations[0] != "CFst b" {
		t.Fatalf("violations = %v", got.Violations)
	}
	if got.Entries[1].Engine != "memsim" {
		t.Fatalf("engine lost: %+v", got.Entries[1])
	}
}

func TestWriteDetectionMatrixJSON(t *testing.T) {
	m := march.BuildDetectionMatrix(
		[]march.Test{march.MATSPlus()},
		march.ClassicalFaultCatalog()[:3],
		march.TwoCellCatalog()[:2],
	)
	buf, err := json.Marshal(ToDetectionMatrixJSON(m))
	if err != nil {
		t.Fatal(err)
	}
	var got DetectionMatrixJSON
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 5 || got.Tests[0] != "MATS+" {
		t.Fatalf("shape lost: %d rows, tests %v", len(got.Rows), got.Tests)
	}
	if got.Detects+got.Misses+got.Unknowns != len(got.Rows) {
		t.Fatalf("tally %d+%d+%d does not cover %d rows", got.Detects, got.Misses, got.Unknowns, len(got.Rows))
	}
	for _, r := range got.Rows {
		if r.Verdict != "Detects" && r.Verdict != "Misses" && r.Verdict != "Unknown" {
			t.Fatalf("verdict %q", r.Verdict)
		}
	}
}

// TestWriteMergePredictionJSON feeds the encoder NaN voltages and +Inf
// conductances — the values json.Marshal rejects — and requires a clean
// null/ideal encoding.
func TestWriteMergePredictionJSON(t *testing.T) {
	p := netlint.MergePrediction{
		Elems:  []string{"rbridge"},
		Phases: []string{"precharge", "sense0"},
		Weak: []netlint.WeakMerge{{
			Elem: "rbridge", Ohms: 2e6,
			A: netlint.WeakSide{
				Net:         "BT",
				Conductance: map[string]float64{"precharge": math.Inf(1), "sense0": 1e-5},
				Volts:       map[string]float64{"precharge": 2.3, "sense0": math.NaN()},
				Anchors:     map[string][]string{"precharge": {"vblp"}},
			},
			B: netlint.WeakSide{
				Net:         "cell0_store",
				Conductance: map[string]float64{"precharge": 0, "sense0": 0},
				Volts:       map[string]float64{"precharge": math.NaN(), "sense0": math.NaN()},
			},
			Verdicts: map[string]netlint.ClassVerdict{},
			Volts: map[string][2]float64{
				"precharge": {2.3, math.NaN()},
				"sense0":    {math.NaN(), math.NaN()},
			},
		}},
	}
	buf, err := json.Marshal(ToMergePredictionJSON(p))
	if err != nil {
		t.Fatalf("NaN/Inf broke the encoder: %v", err)
	}
	var got MergePredictionJSON
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	w := got.Weak[0]
	if !w.A.Drive["precharge"].Ideal || w.A.Drive["sense0"].Siemens != 1e-5 {
		t.Fatalf("drive encoding: %+v", w.A.Drive)
	}
	if w.A.Volts["sense0"] != nil || w.A.Volts["precharge"] == nil || *w.A.Volts["precharge"] != 2.3 {
		t.Fatalf("volt encoding: %+v", w.A.Volts)
	}
	if v := w.Volts["precharge"]; v[0] == nil || v[1] != nil {
		t.Fatalf("pair volt encoding: %+v", v)
	}
	if strings.Contains(string(buf), "NaN") {
		t.Fatal("NaN leaked into the JSON")
	}
}

func TestWriteFindingsJSON(t *testing.T) {
	fs := lint.Findings{
		{Layer: "netlist", Rule: "floating-net", Severity: lint.Error, Subject: "BT", Message: "floats in sense0"},
		{Layer: "march", Rule: "redundant-op", Severity: lint.Info, Subject: "MATS+", Message: "detail"},
	}
	buf, err := json.Marshal(ToFindingsJSON(fs, lint.Warning))
	if err != nil {
		t.Fatal(err)
	}
	var got []FindingJSON
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Severity != "error" || got[0].Rule != "floating-net" {
		t.Fatalf("filtered findings = %+v", got)
	}
	if buf, err = json.Marshal(ToFindingsJSON(fs, lint.Info)); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("unfiltered findings = %+v", got)
	}
}
