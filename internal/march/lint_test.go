package march

import (
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/lint"
)

// The entire library must lint clean: no errors, no warnings (info
// findings like final-writes-unverified are expected and fine).
func TestLibraryLintsClean(t *testing.T) {
	fs := LintAll(All())
	if n := fs.Count(lint.Warning); n != 0 {
		t.Errorf("library has %d lint findings at warning or above:", n)
		for _, f := range fs.AtLeast(lint.Warning) {
			t.Errorf("  %s", f)
		}
	}
}

func TestLintContradictoryRead(t *testing.T) {
	bad := Test{Name: "bad-read", Elements: []Element{
		el(Any, W(0)),
		el(Up, R(1), W(0)), // healthy state is 0 here
	}}
	fs := Lint(bad).ByRule("contradictory-read")
	if len(fs) != 1 || fs[0].Severity != lint.Error {
		t.Fatalf("want one contradictory-read error, got %v", fs)
	}
	if !strings.Contains(fs[0].Message, "r1") {
		t.Errorf("message should name the offending read: %s", fs[0].Message)
	}
}

func TestLintLeadingRead(t *testing.T) {
	bad := Test{Name: "leading", Elements: []Element{
		el(Up, R(0), W(0)),
	}}
	if fs := Lint(bad).ByRule("leading-read"); len(fs) != 1 || fs[0].Severity != lint.Warning {
		t.Fatalf("want one leading-read warning, got %v", fs)
	}
	// After a write the same read is fine.
	good := Test{Name: "ok", Elements: []Element{
		el(Any, W(0)),
		el(Up, R(0), W(1)),
	}}
	if fs := Lint(good).AtLeast(lint.Warning); len(fs) != 0 {
		t.Fatalf("clean test flagged: %v", fs)
	}
}

func TestLintRedundantElement(t *testing.T) {
	bad := Test{Name: "dead", Elements: []Element{
		el(Any, W(0)),
		el(Any, W(0)), // rewrites the established 0
		el(Up, R(0), W(1)),
	}}
	if fs := Lint(bad).ByRule("redundant-element"); len(fs) != 1 {
		t.Fatalf("want one redundant-element warning, got %v", fs)
	}
	// A write-only element that changes state is not redundant.
	good := Test{Name: "alive", Elements: []Element{
		el(Any, W(0)),
		el(Any, W(1), W(0)),
		el(Up, R(0)),
	}}
	if fs := Lint(good).ByRule("redundant-element"); len(fs) != 0 {
		t.Fatalf("state-changing element flagged: %v", fs)
	}
}

func TestLintOrderIrrelevant(t *testing.T) {
	bad := Test{Name: "fixed-order", Elements: []Element{
		el(Any, W(0)),
		el(Down, W(1), W(1)), // single repeated write value: order cannot matter
		el(Up, R(1)),
	}}
	if fs := Lint(bad).ByRule("order-irrelevant"); len(fs) != 1 {
		t.Fatalf("want one order-irrelevant warning, got %v", fs)
	}
	// Mixed read/write directional elements keep their order meaningfully.
	if fs := Lint(MATSPlus()).ByRule("order-irrelevant"); len(fs) != 0 {
		t.Fatalf("MATS+ flagged: %v", fs)
	}
}

func TestLintFinalWritesUnverified(t *testing.T) {
	fs := Lint(MATSPlus()).ByRule("final-writes-unverified")
	if len(fs) != 1 || fs[0].Severity != lint.Info {
		t.Fatalf("MATS+ ends with an unread w0; want one info finding, got %v", fs)
	}
	if fs := Lint(MarchY()).ByRule("final-writes-unverified"); len(fs) != 0 {
		t.Fatalf("March Y ends with a read; got %v", fs)
	}
}

func TestLintInvalidTest(t *testing.T) {
	if fs := Lint(Test{Name: "empty"}).ByRule("invalid-test"); len(fs) != 1 || fs[0].Severity != lint.Error {
		t.Fatalf("want one invalid-test error, got %v", fs)
	}
}
