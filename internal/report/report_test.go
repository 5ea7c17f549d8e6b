package report

import (
	"bytes"
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

func testPlane() *analysis.Plane {
	o, _ := defect.ByID(4)
	grp, _ := o.Float(defect.FloatBitLine)
	p := &analysis.Plane{
		Open: o, Float: grp,
		SOS:   fp.NewSOS(fp.Init1, fp.R(1)),
		RDefs: []float64{1e3, 1e6},
		Us:    []float64{0, 3.3},
	}
	p.Points = [][]analysis.Point{
		{{RDef: 1e3, U: 0}, {RDef: 1e3, U: 3.3}},
		{
			{RDef: 1e6, U: 0, Faulty: true, FP: fp.MustParse("<1r1/0/0>"), FFM: fp.RDF1},
			{RDef: 1e6, U: 3.3},
		},
	}
	return p
}

func TestWritePlane(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePlane(&buf, testPlane()); err != nil {
		t.Fatalf("WritePlane: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"Open 4", "r", ".", "legend", "RDF1"} {
		if !strings.Contains(out, want) {
			t.Errorf("plane output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePlaneCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePlaneCSV(&buf, testPlane()); err != nil {
		t.Fatalf("WritePlaneCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 4 points
		t.Fatalf("CSV has %d lines, want 5", len(lines))
	}
	if !strings.Contains(buf.String(), "RDF1") {
		t.Error("CSV missing FFM column value")
	}
}

func TestGlyphs(t *testing.T) {
	if g := Glyph(analysis.Point{}); g != '.' {
		t.Errorf("healthy glyph = %c, want .", g)
	}
	pt := analysis.Point{Faulty: true, FFM: fp.RDF0}
	if g := Glyph(pt); g != 'R' {
		t.Errorf("RDF0 glyph = %c, want R", g)
	}
	if g := Glyph(analysis.Point{Faulty: true}); g != '?' {
		t.Errorf("unknown glyph = %c, want ?", g)
	}
}

func TestWriteInventory(t *testing.T) {
	o, _ := defect.ByID(4)
	rows := []analysis.Row{
		{
			SimFFM: fp.RDF1, ComFFM: fp.RDF0, Open: o,
			Float: defect.FloatBitLine, Possible: true,
			Completed: fp.MustParse("<1v [w0BL] r1v/0/0>"),
		},
		{SimFFM: fp.SF0, ComFFM: fp.SF1, Open: o, Float: defect.FloatWordLine},
	}
	var buf bytes.Buffer
	if err := WriteInventory(&buf, rows); err != nil {
		t.Fatalf("WriteInventory: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"RDF1", "Not possible", "<1v [w0BL] r1v/0/0>", "Bit line"} {
		if !strings.Contains(out, want) {
			t.Errorf("inventory missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCoverage(t *testing.T) {
	results := []march.CoverageResult{
		{Test: "MATS+", Fault: "RDF1", Detected: true, Caught: 8, Scenarios: 8},
		{Test: "March PF", Fault: "RDF1", Detected: true, Caught: 16, Scenarios: 16},
		{Test: "MATS+", Fault: "RDF1 partial", Caught: 0, Scenarios: 8},
		{Test: "March PF", Fault: "RDF1 partial", Caught: 8, Scenarios: 16},
	}
	var buf bytes.Buffer
	if err := WriteCoverage(&buf, results, []string{"MATS+", "March PF"}); err != nil {
		t.Fatalf("WriteCoverage: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"✓", "✗", "8/16"} {
		if !strings.Contains(out, want) {
			t.Errorf("coverage missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFindings(t *testing.T) {
	fs := lint.Findings{
		{Layer: "netlist", Rule: "floating-net", Severity: lint.Error, Subject: "btX", Message: "no DC path"},
		{Layer: "march", Rule: "leading-read", Severity: lint.Warning, Subject: "Bad", Message: "reads first"},
		{Layer: "march", Rule: "proved-miss", Severity: lint.Info, Subject: "MATS+", Message: "never detects"},
	}
	fs.Sort()

	var full strings.Builder
	if err := WriteFindings(&full, fs, lint.Info); err != nil {
		t.Fatal(err)
	}
	out := full.String()
	for _, want := range []string{"[netlist]", "[march]", "floating-net", "leading-read", "proved-miss",
		"1 error, 1 warning, 1 info finding"} {
		if !strings.Contains(out, want) {
			t.Errorf("full output missing %q:\n%s", want, out)
		}
	}

	var filtered strings.Builder
	if err := WriteFindings(&filtered, fs, lint.Warning); err != nil {
		t.Fatal(err)
	}
	out = filtered.String()
	if strings.Contains(out, "proved-miss") {
		t.Errorf("info finding printed above threshold:\n%s", out)
	}
	if !strings.Contains(out, "(1 below the reporting threshold)") {
		t.Errorf("filtered summary should count hidden findings:\n%s", out)
	}
}

// WriteMergePrediction must render all three sections: hard classes
// with per-phase verdicts, weak bridges with divider voltages (NaN as
// "?", ideal anchoring as "ideal"), and the float lines.
func TestWriteMergePrediction(t *testing.T) {
	pred := netlint.MergePrediction{
		Elems:  []string{"R_short", "R_weak"},
		Phases: []string{"on", "off"},
		Classes: []netlint.MergedClass{{
			Nets: []string{"0", "c0s"}, Name: "0=c0s", Supplies: []string{"0"},
			Verdicts: map[string]netlint.ClassVerdict{"on": netlint.VerdictContested, "off": netlint.VerdictStuck},
			Anchors:  map[string][]string{"on": {"0", "latch:btS"}, "off": {"0"}},
		}},
		Weak: []netlint.WeakMerge{{
			Elem: "R_weak", Ohms: 1.5e3,
			A: netlint.WeakSide{
				Net:         "out",
				Anchors:     map[string][]string{"on": {"0", "vdd"}, "off": nil},
				Conductance: map[string]float64{"on": 2e-3, "off": 0},
				Volts:       map[string]float64{"on": 1.65, "off": math.NaN()},
			},
			B: netlint.WeakSide{
				Net:         "vdd",
				Anchors:     map[string][]string{"on": {"vdd"}, "off": {"vdd"}},
				Conductance: map[string]float64{"on": math.Inf(1), "off": math.Inf(1)},
				Volts:       map[string]float64{"on": 3.3, "off": 3.3},
			},
			Verdicts: map[string]netlint.ClassVerdict{"on": netlint.VerdictWeakContested, "off": netlint.VerdictWeakDriven},
			Volts: map[string][2]float64{
				"on":  {2.0625, 3.3},
				"off": {3.3, 3.3},
			},
		}},
	}
	var buf bytes.Buffer
	if err := WriteMergePrediction(&buf, pred); err != nil {
		t.Fatalf("WriteMergePrediction: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"R_short, R_weak",
		"class 0=c0s (supplies: 0)",
		"contested", "stuck",
		"weak bridge R_weak (1.5e+03 Ω): out – vdd",
		"weak-contested", "weak-driven",
		"2.062 V", "ideal", "0.002",
		"anchors: 0, vdd | vdd",
		"primary floats:   (none)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merge prediction missing %q:\n%s", want, out)
		}
	}
}
