package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-open", "42"},
		{"-engine", "verilog"},
		{"-sos", "not an sos"},
		{"-open", "4", "-float", "Imaginary line"},
		{"-defect", "nowhere"},
		{"-defect", "short.bl.vdd@-5"},
		{"-twocell", "March ZZ"},
		{"-twocell", "MATS+", "-march-engine", "memsim"}, // one engine: the flag is gone
		{"-prove", "March ZZ"},
		{"-sweep", "sideways"},
		{"-prove", "MATS+", "stray", "-open", "42"},
	}
	for _, args := range cases {
		code, _, errw := runCLI(t, args...)
		if code == 0 {
			t.Errorf("run(%v) succeeded, want failure", args)
		}
		if errw == "" {
			t.Errorf("run(%v) failed silently", args)
		}
	}
}

func TestRunFaultMap(t *testing.T) {
	code, out, errw := runCLI(t,
		"-open", "4", "-sos", "1r1",
		"-rdef-steps", "3", "-u-steps", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "R_def") && !strings.Contains(out, "U") {
		t.Fatalf("map output:\n%s", out)
	}
}

// TestRunFaultMapTraced checks the -sweep traced path: the map on
// stdout must be byte-identical to the dense sweep's, with the
// simulated/inferred split reported on stderr.
func TestRunFaultMapTraced(t *testing.T) {
	grid := []string{"-open", "4", "-sos", "1r1", "-rdef-steps", "13", "-u-steps", "12"}
	code, dense, errw := runCLI(t, append(grid, "-sweep", "dense")...)
	if code != 0 {
		t.Fatalf("dense exit %d: %s", code, errw)
	}
	code, traced, errw := runCLI(t, append(grid, "-sweep", "traced")...)
	if code != 0 {
		t.Fatalf("traced exit %d: %s", code, errw)
	}
	if traced != dense {
		t.Errorf("traced map differs from dense map:\n--- dense ---\n%s--- traced ---\n%s", dense, traced)
	}
	if !strings.Contains(errw, "traced sweep simulated") {
		t.Errorf("missing trace stats on stderr: %q", errw)
	}
}

func TestRunFaultMapCSV(t *testing.T) {
	code, out, errw := runCLI(t,
		"-open", "4", "-sos", "1r1", "-csv",
		"-rdef-steps", "3", "-u-steps", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, ",") || len(strings.Split(strings.TrimSpace(out), "\n")) < 2 {
		t.Fatalf("csv output:\n%s", out)
	}
}

func TestRunPredictFloats(t *testing.T) {
	code, out, errw := runCLI(t, "-open", "4", "-predict")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "primary floats") {
		t.Fatalf("predict output:\n%s", out)
	}
}

func TestRunPredictMerge(t *testing.T) {
	code, out, errw := runCLI(t, "-defect", "bridge.bl.bl@2e6")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "bridge") {
		t.Fatalf("merge output:\n%s", out)
	}
}

func TestRunProveAndTwoCell(t *testing.T) {
	code, out, errw := runCLI(t, "-prove", "March PF")
	if code != 0 {
		t.Fatalf("prove exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "static detection matrix") {
		t.Fatalf("prove output:\n%s", out)
	}
	code, out, errw = runCLI(t, "-twocell", "MATS+")
	if code != 0 {
		t.Fatalf("twocell exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "certificate") {
		t.Fatalf("twocell output:\n%s", out)
	}
}

// TestRunStress drives the -stress mode end to end on a reduced grid
// and a single extra corner: the report must carry every section — the
// header, both per-corner inventories, the delta report and the
// worst-corner certificate — with the corner progress on stderr.
func TestRunStress(t *testing.T) {
	code, out, errw := runCLI(t,
		"-stress", "-corners", "low-vdd",
		"-rdef-steps", "2", "-u-steps", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	for _, want := range []string{
		"# Stress matrix — engine behav, march engine bitsim",
		"## Corner nominal (nominal:",
		"## Corner low-vdd (low-vdd:vdd=0.9,vpp=0.9",
		"## Corner deltas vs nominal",
		"## Worst-corner certificate —",
		"| Sim. FFM |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stress report missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errw, "corner low-vdd: sweeping inventory") {
		t.Errorf("missing corner progress on stderr: %q", errw)
	}
}

// TestRunStressExplicitCorner checks the name:key=val,... derivation
// path and the traced sweep through -stress.
func TestRunStressExplicitCorner(t *testing.T) {
	code, out, errw := runCLI(t,
		"-stress", "-corners", "burn-in:temp=125,vdd=1.05", "-sweep", "traced",
		"-rdef-steps", "2", "-u-steps", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "## Corner burn-in (burn-in:vdd=1.05,vpp=1,bleq=0,vref=0,temp=125)") {
		t.Errorf("derived corner missing from report:\n%s", out)
	}
}

// TestRunStressBadCorners: invalid corner lists fail fast with exit 1.
func TestRunStressBadCorners(t *testing.T) {
	cases := [][]string{
		{"-stress", "-corners", "volcanic"},
		{"-stress", "-corners", "x:vdd=-1"},
		{"-stress", "-corners", "x:temp=500"},
		{"-stress", "-corners", "hot;hot"},
		{"-stress", "-corners", "x:warp=9"},
		{"-stress", "-engine", "verilog"},
		{"-stress", "-sweep", "sideways"},
	}
	for _, args := range cases {
		code, _, errw := runCLI(t, args...)
		if code != 1 {
			t.Errorf("run(%v) exit %d, want 1", args, code)
		}
		if errw == "" {
			t.Errorf("run(%v) failed silently", args)
		}
	}
}
