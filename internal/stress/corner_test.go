package stress

import (
	"math"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/dram"
)

// TestNominalIdentity pins the identity the whole stress axis hangs on:
// deriving the nominal corner returns the base technology and the base
// analytical parameters bit-for-bit, so the nominal corner shares the
// base model's fingerprint — and therefore its store entries.
func TestNominalIdentity(t *testing.T) {
	base := dram.Default()
	got, err := Nominal().Derive(base)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Fatalf("nominal derivation is not the identity:\n%+v\n%+v", got, base)
	}
	bp := behav.DefaultParams()
	gp, err := Nominal().DeriveParams(bp)
	if err != nil {
		t.Fatal(err)
	}
	if gp != bp {
		t.Fatalf("nominal parameter derivation is not the identity:\n%+v\n%+v", gp, bp)
	}
	if behav.Fingerprint(gp) != behav.Fingerprint(bp) {
		t.Fatal("nominal corner does not share the base model fingerprint")
	}
}

// TestDefaultCornersDeriveClean proves the package's documented claim:
// every built-in corner derives lint-clean from dram.Default(), for
// both the electrical technology and the analytical parameter set.
func TestDefaultCornersDeriveClean(t *testing.T) {
	for _, c := range DefaultCorners() {
		if _, err := c.Derive(dram.Default()); err != nil {
			t.Errorf("corner %s: %v", c.Name, err)
		}
		if _, err := c.DeriveParams(behav.DefaultParams()); err != nil {
			t.Errorf("corner %s (params): %v", c.Name, err)
		}
	}
}

// TestCornerFingerprintsDistinct is the anti-aliasing property the
// result store and the duplicate-corner guard depend on: distinct
// corners derive distinct model fingerprints under both engines, and
// every fingerprint names its model kind, so an electrical and an
// analytical fingerprint never coincide.
func TestCornerFingerprintsDistinct(t *testing.T) {
	seenBehav := map[analysis.Fingerprint]string{}
	seenSpice := map[analysis.Fingerprint]string{}
	for _, c := range DefaultCorners() {
		p, err := c.DeriveParams(behav.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		bf := behav.Fingerprint(p)
		if prev, dup := seenBehav[bf]; dup {
			t.Errorf("corners %s and %s share behav fingerprint %s", prev, c.Name, bf)
		}
		seenBehav[bf] = c.Name

		tech, err := c.Derive(dram.Default())
		if err != nil {
			t.Fatal(err)
		}
		sf, err := analysis.SpiceFingerprint(tech)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seenSpice[sf]; dup {
			t.Errorf("corners %s and %s share spice fingerprint %s", prev, c.Name, sf)
		}
		seenSpice[sf] = c.Name
		if bf.Kind() != "behav" || sf.Kind() != "spice" {
			t.Errorf("corner %s: model kinds not explicit: %q vs %q", c.Name, bf.Kind(), sf.Kind())
		}
	}
}

// TestParseSpecRoundTrip: ParseSpec(s.String()) == s for every built-in
// corner, and bare built-in names resolve to their corner.
func TestParseSpecRoundTrip(t *testing.T) {
	for _, c := range DefaultCorners() {
		got, err := ParseSpec(c.String())
		if err != nil {
			t.Fatalf("%s: %v", c.String(), err)
		}
		if got != c {
			t.Errorf("round trip moved %s to %+v", c.String(), got)
		}
		byName, err := ParseSpec(c.Name)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if byName != c {
			t.Errorf("built-in name %s resolved to %+v", c.Name, byName)
		}
	}
	// Omitted keys stay nominal.
	got, err := ParseSpec(" burn-in : temp=125 ")
	if err != nil {
		t.Fatal(err)
	}
	want := Nominal()
	want.Name, want.TempC = "burn-in", 125
	if got != want {
		t.Errorf("partial spec parsed to %+v, want %+v", got, want)
	}
}

// TestParseSpecErrors drives the parser's rejection paths.
func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",          // empty
		"   ",       // blank
		":vdd=1",    // no name
		"volcanic",  // unknown built-in
		"x:vdd",     // no value
		"x:vdd=abc", // unparsable value
		"x:warp=9",  // unknown key
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

// TestParseSpecs checks list parsing: unique names, empty-list
// rejection, blank-segment tolerance.
func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs(" hot ; cold ;;")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "hot" || specs[1].Name != "cold" {
		t.Fatalf("specs: %+v", specs)
	}
	if _, err := ParseSpecs("hot;hot"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names accepted: %v", err)
	}
	if _, err := ParseSpecs(" ; ;"); err == nil {
		t.Fatal("empty corner list accepted")
	}
}

// TestDeriveRejectsUnphysicalSpecs drives validate() through Derive:
// non-finite parameters, non-positive scales and out-of-range
// temperatures must all fail before any technology math runs.
func TestDeriveRejectsUnphysicalSpecs(t *testing.T) {
	base := dram.Default()
	mk := func(mutate func(*Spec)) Spec {
		s := Nominal()
		s.Name = "bad"
		mutate(&s)
		return s
	}
	cases := []Spec{
		mk(func(s *Spec) { s.VDDScale = math.NaN() }),
		mk(func(s *Spec) { s.VBLEQShift = math.Inf(1) }),
		mk(func(s *Spec) { s.VDDScale = 0 }),
		mk(func(s *Spec) { s.VPPScale = -1 }),
		mk(func(s *Spec) { s.TempC = dram.MaxTempC + 1 }),
		mk(func(s *Spec) { s.TempC = dram.MinTempC - 1 }),
		mk(func(s *Spec) { s.Name = "" }),
		// Passes validate() but derives a technology lint rejects: a
		// collapsed supply starves every level check.
		mk(func(s *Spec) { s.VDDScale = 0.05 }),
	}
	for _, s := range cases {
		if _, err := s.Derive(base); err == nil {
			t.Errorf("Derive accepted %+v", s)
		}
		if _, err := s.DeriveParams(behav.DefaultParams()); err == nil {
			t.Errorf("DeriveParams accepted %+v", s)
		}
	}
}

// TestEnsureNominal: prepended when absent, untouched when present —
// even when the identity corner travels under another name.
func TestEnsureNominal(t *testing.T) {
	hot, _ := ParseSpec("hot")
	got := EnsureNominal([]Spec{hot})
	if len(got) != 2 || got[0] != Nominal() || got[1] != hot {
		t.Fatalf("EnsureNominal([hot]) = %+v", got)
	}
	withNominal := []Spec{hot, Nominal()}
	if g := EnsureNominal(withNominal); len(g) != 2 || g[0] != hot {
		t.Fatalf("EnsureNominal reordered %+v to %+v", withNominal, g)
	}
	renamed := Nominal()
	renamed.Name = "baseline"
	if g := EnsureNominal([]Spec{renamed}); len(g) != 1 {
		t.Fatalf("renamed identity corner not recognized: %+v", g)
	}
}

// TestTempFactors pins the derivation physics' direction: heat raises
// wire resistance and weakens device drive; cold does the opposite; the
// base temperature is the fixed point.
func TestTempFactors(t *testing.T) {
	base := dram.Default().TempC
	r, d := tempFactors(base, base)
	if r != 1 || d != 1 {
		t.Fatalf("base temperature is not the fixed point: r=%g d=%g", r, d)
	}
	r, d = tempFactors(base, 100)
	if r <= 1 || d >= 1 {
		t.Fatalf("hot factors have the wrong sign: r=%g d=%g", r, d)
	}
	r, d = tempFactors(base, -40)
	if r >= 1 || d <= 1 {
		t.Fatalf("cold factors have the wrong sign: r=%g d=%g", r, d)
	}
}
