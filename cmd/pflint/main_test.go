package main

import (
	"strings"
	"testing"
)

// The acceptance gate: zero on the repository itself, nonzero on the
// seeded bad inputs.
func TestRepositoryExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"../../..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d on the repository, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "0 errors, 0 warnings") {
		t.Errorf("summary should report a clean run:\n%s", out.String())
	}
}

func TestSelftestExitsNonzero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-selftest"}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d on seeded bad inputs, want 1\nstderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{
		"floating-net", "vsource-loop", "contradictory-read", "merge-supply-pair",
		// The transitive double short: neither R_s1 nor R_s2 alone joins
		// both rails, so this class can only come from the multi-defect
		// contraction.
		"0=mid=vdd",
		// The weak resistive bridge's contested divider.
		"merge-weak-contested",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("selftest output missing %q:\n%s", want, out.String())
		}
	}
}

// -v surfaces the informational findings (the detection prover's proved
// misses and gmin diagnostics) that the default threshold hides.
func TestVerboseShowsInfo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-v", "../../..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"proved-miss", "gmin-dependent"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("verbose output missing %q", want)
		}
	}
}

// The seeded CFds-missing march test: structurally clean (no error
// findings of its own), but the detection prover proves it never
// detects the non-transition disturb couplings.
func TestSelftestFlagsSeededCFdsMiss(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-selftest", "-v"}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d on seeded bad inputs, want 1\nstderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"seeded-cfds-miss", "proved-miss", "CFds"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("verbose selftest output missing %q:\n%s", want, out.String())
		}
	}
}
