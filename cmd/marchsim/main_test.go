package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseGeometry(t *testing.T) {
	cases := []struct {
		in         string
		rows, cols int
		wantErr    bool
	}{
		{"4x2", 4, 2, false},
		{"1024x1024", 1024, 1024, false},
		{"1024x1024x2", 0, 0, true}, // 3-D geometry: reject, don't truncate
		{"x4", 0, 0, true},
		{"4x", 0, 0, true},
		{"4", 0, 0, true},
		{"0x4", 0, 0, true},
		{"4x-2", 0, 0, true},
		{"axb", 0, 0, true},
		{"", 0, 0, true},
	}
	for _, c := range cases {
		rows, cols, err := parseGeometry(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseGeometry(%q) = %dx%d, want error", c.in, rows, cols)
			}
			continue
		}
		if err != nil || rows != c.rows || cols != c.cols {
			t.Errorf("parseGeometry(%q) = %d, %d, %v; want %d, %d", c.in, rows, cols, err, c.rows, c.cols)
		}
	}
}

func TestParseOffsets(t *testing.T) {
	got, err := parseOffsets("1,-1, 64 ,-64")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, -1, 64, -64}
	if len(got) != len(want) {
		t.Fatalf("parseOffsets = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseOffsets = %v, want %v", got, want)
		}
	}
	if got, err := parseOffsets(""); err != nil || got != nil {
		t.Fatalf("empty: %v, %v", got, err)
	}
	for _, bad := range []string{"0", "1,0", "1,1", "1,", "a"} {
		if _, err := parseOffsets(bad); err == nil {
			t.Errorf("parseOffsets(%q) accepted", bad)
		}
	}
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunBadFlagCombos(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-geometry", "1024x1024x2"},
		{"-engine", "memsim"}, // one engine: the flag is gone
		{"-test", "March ZZ"},
		{"-offsets", "1,-1"}, // offsets without -twocell
		{"-twocell", "-offsets", "0"},
		{"-fault", "not a primitive"},
		{"-test", "custom", "-notation", "not march"},
		{"-twocell", "March SS", "-geometry", "8x8"}, // -twocell is a bool
		// 2⁶² cells × 16 order assignments overflow the scenario count.
		{"-geometry", "2147483648x2147483648", "-test", "March PF"},
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

// TestRunTooManyAnyElements: a custom test with more ⇕ elements than
// the cap fails with the parse error instead of panicking in the
// engine (64 elements used to divide by zero).
func TestRunTooManyAnyElements(t *testing.T) {
	notation := "{" + strings.Repeat("m(w0); ", 64) + "}"
	code, out, errw := runCLI(t, "-test", "custom", "-geometry", "2x2", "-notation", notation)
	if code != 1 || !strings.Contains(errw, "16") {
		t.Fatalf("exit %d, stderr %q, stdout %q; want exit 1 naming the cap of 16", code, errw, out)
	}
}

func TestRunSingleTestCoverage(t *testing.T) {
	code, out, errw := runCLI(t, "-test", "MATS+", "-rows", "3", "-cols", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "MATS+") || !strings.Contains(out, "SF") {
		t.Fatalf("coverage output:\n%s", out)
	}
}

// TestRunBitsimEngine: every run simulates on the bit-plane engine, so
// a megabit array costs what a small one does.
func TestRunBitsimEngine(t *testing.T) {
	code, out, errw := runCLI(t, "-geometry", "1024x1024", "-test", "March PF")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "March PF") || !strings.Contains(out, "| SF0 | ✓ |") {
		t.Fatalf("output:\n%s", out)
	}
}

// TestRunTwoCellOffsets drives the new -offsets path end to end and
// checks the restricted certificate still renders.
func TestRunTwoCellOffsets(t *testing.T) {
	code, out, errw := runCLI(t, "-test", "March C-", "-twocell", "-offsets", "1,-1", "-rows", "3", "-cols", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "March C-") || !strings.Contains(out, "CF") {
		t.Fatalf("certificate output:\n%s", out)
	}
	full, _, _ := runCLI(t, "-test", "March C-", "-twocell", "-rows", "3", "-cols", "3")
	if full != 0 {
		t.Fatal("full-walk run failed")
	}
	if out == "" {
		t.Fatal("empty restricted certificate")
	}
}

func TestRunProve(t *testing.T) {
	code, out, errw := runCLI(t, "-test", "March PF", "-prove")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "static detection matrix") || !strings.Contains(out, "proved detected") {
		t.Fatalf("prove output:\n%s", out)
	}
}
