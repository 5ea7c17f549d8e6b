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

// TestRunQuickOpen4 drives the pipeline end to end on the coarse grid
// for one open: the inventory table, the summary line and the paper
// comparison must all be printed, with progress on stderr under -v.
func TestRunQuickOpen4(t *testing.T) {
	code, out, errw := runCLI(t, "-quick", "-opens", "4", "-v")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	for _, want := range []string{
		"reproduction of Table 1",
		"| Open 4 |",
		"partial faults found;",
		"Comparison with the paper's published Table 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errw, "Open 4 /") {
		t.Errorf("missing pipeline progress on stderr: %q", errw)
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-opens", "x"}, 1},
		{[]string{"-opens", "42"}, 1},
		{[]string{"-engine", "verilog"}, 1},
		{[]string{"-opens", "42", "stray"}, 2},
	}
	for _, c := range cases {
		code, _, errw := runCLI(t, c.args...)
		if code != c.code {
			t.Errorf("run(%v) exit %d, want %d", c.args, code, c.code)
		}
		if errw == "" {
			t.Errorf("run(%v) failed silently", c.args)
		}
	}
}
