// Package stress implements the stress-condition scenario matrix: the
// third analysis axis of the roadmap, grounded in the industrial
// stress-testing evaluation of Majhi et al. Operating corners — supply
// and word-line boost scaling, precharge-level shifts and
// temperature-scaled device parameters — are expressed as validated
// derivations of dram.Technology, swept over the full defect catalog
// through the existing pooled pipeline, and reported as a
// per-corner Table-1-style inventory, a corner-delta report against the
// nominal corner, and a worst-corner coverage certificate that is only
// claimed when it holds at every corner (DESIGN.md §15).
package stress

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/lint"
)

// Physical constants of the corner derivation. The values are
// first-order textbook numbers, not calibration targets: what matters
// downstream is that temperature moves every resistance and drive
// strength monotonically and deterministically, so corners are
// reproducible and their fingerprints honest.
const (
	// wireTCR is the temperature coefficient of the wire and switch
	// resistances, per kelvin (aluminium-class interconnect).
	wireTCR = 3.5e-3
	// mobilityExp is the exponent of the carrier-mobility power law
	// µ(T) ∝ T^-mobilityExp; device drive scales with µ.
	mobilityExp = 1.5
	// zeroC converts Celsius to absolute temperature.
	zeroC = 273.15
)

// Spec declares one operating corner as a derivation from a base
// technology. The zero value is invalid (a zero VDD scale); build specs
// with Nominal(), ParseSpec, or by mutating Nominal().
type Spec struct {
	// Name labels the corner in reports and store keys.
	Name string
	// VDDScale multiplies VDD; VBLEQ and VRefCell scale with it too, so
	// the half-rail precharge convention tracks the supply.
	VDDScale float64
	// VPPScale multiplies the boosted word-line level VPP.
	VPPScale float64
	// VBLEQShift is added to the (scaled) bit-line precharge level, in
	// volts — the precharge-stress axis.
	VBLEQShift float64
	// VRefShift is added to the (scaled) reference-cell restore level.
	VRefShift float64
	// TempC is the absolute junction temperature of the corner in °C.
	TempC float64
}

// Nominal returns the identity corner: every scale 1, every shift 0,
// temperature at the default calibration point. Deriving it from a base
// technology returns that technology bit-for-bit, so the nominal corner
// shares the base model's fingerprint — and therefore its store
// entries.
func Nominal() Spec {
	return Spec{Name: "nominal", VDDScale: 1, VPPScale: 1, TempC: dram.Default().TempC}
}

// IsNominal reports whether the spec is the identity derivation
// (regardless of its name).
func (s Spec) IsNominal() bool {
	n := Nominal()
	n.Name = s.Name
	return s == n
}

// String renders the spec in the canonical parseable form
// "name:vdd=…,vpp=…,bleq=…,vref=…,temp=…". ParseSpec(s.String())
// round-trips, and equal specs render equally — the property the store
// keys and fingerprint tests lean on.
func (s Spec) String() string {
	return fmt.Sprintf("%s:vdd=%g,vpp=%g,bleq=%g,vref=%g,temp=%g",
		s.Name, s.VDDScale, s.VPPScale, s.VBLEQShift, s.VRefShift, s.TempC)
}

// DefaultCorners returns the built-in stress matrix: the nominal point
// plus the supply, precharge and temperature corners of the industrial
// stress envelope. Every entry derives lint-clean from dram.Default()
// (a unit test proves it).
func DefaultCorners() []Spec {
	mk := func(name string, mutate func(*Spec)) Spec {
		s := Nominal()
		s.Name = name
		mutate(&s)
		return s
	}
	return []Spec{
		Nominal(),
		mk("low-vdd", func(s *Spec) { s.VDDScale, s.VPPScale = 0.9, 0.9 }),
		mk("high-vdd", func(s *Spec) { s.VDDScale, s.VPPScale = 1.1, 1.1 }),
		mk("weak-precharge", func(s *Spec) { s.VBLEQShift, s.VRefShift = -0.3, -0.3 }),
		mk("hot", func(s *Spec) { s.TempC = 100 }),
		mk("cold", func(s *Spec) { s.TempC = -40 }),
	}
}

// ParseSpec parses one corner. Accepted forms:
//
//	nominal                          — the identity corner
//	hot                              — any DefaultCorners() name
//	name:key=val,key=val,...         — explicit derivation
//
// Keys: vdd and vpp (scale factors), bleq and vref (voltage shifts,
// volts), temp (absolute °C). Omitted keys stay nominal.
func ParseSpec(in string) (Spec, error) {
	in = strings.TrimSpace(in)
	if in == "" {
		return Spec{}, fmt.Errorf("stress: empty corner spec")
	}
	name, params, explicit := strings.Cut(in, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return Spec{}, fmt.Errorf("stress: corner spec %q has no name", in)
	}
	if !explicit {
		for _, c := range DefaultCorners() {
			if c.Name == name {
				return c, nil
			}
		}
		return Spec{}, fmt.Errorf("stress: unknown corner %q (built-ins: %s; or use name:key=val,... )",
			name, strings.Join(cornerNames(DefaultCorners()), ", "))
	}
	s := Nominal()
	s.Name = name
	for _, kv := range strings.Split(params, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("stress: corner %q: bad parameter %q (want key=value)", name, kv)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return Spec{}, fmt.Errorf("stress: corner %q: bad value in %q: %v", name, kv, err)
		}
		switch strings.TrimSpace(key) {
		case "vdd":
			s.VDDScale = v
		case "vpp":
			s.VPPScale = v
		case "bleq", "vbleq":
			s.VBLEQShift = v
		case "vref":
			s.VRefShift = v
		case "temp":
			s.TempC = v
		default:
			return Spec{}, fmt.Errorf("stress: corner %q: unknown parameter %q (want vdd, vpp, bleq, vref or temp)", name, key)
		}
	}
	return s, nil
}

// ParseSpecs parses a semicolon-separated corner list. Names must be
// unique — two corners sharing a name would be indistinguishable in
// every report and delta.
func ParseSpecs(in string) ([]Spec, error) {
	var out []Spec
	seen := map[string]bool{}
	for _, part := range strings.Split(in, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		s, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("stress: duplicate corner name %q", s.Name)
		}
		seen[s.Name] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("stress: empty corner list")
	}
	return out, nil
}

// validate rejects specs whose derivation arithmetic cannot be
// physical, before any technology math runs.
func (s Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("stress: corner has no name")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"vdd scale", s.VDDScale}, {"vpp scale", s.VPPScale},
		{"bleq shift", s.VBLEQShift}, {"vref shift", s.VRefShift},
		{"temp", s.TempC},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("stress: corner %q: %s = %g is not finite", s.Name, f.name, f.v)
		}
	}
	if s.VDDScale <= 0 || s.VPPScale <= 0 {
		return fmt.Errorf("stress: corner %q: scale factors must be positive (vdd=%g, vpp=%g)",
			s.Name, s.VDDScale, s.VPPScale)
	}
	if s.TempC < dram.MinTempC || s.TempC > dram.MaxTempC {
		return fmt.Errorf("stress: corner %q: temp = %g °C outside [%g, %g]",
			s.Name, s.TempC, dram.MinTempC, dram.MaxTempC)
	}
	return nil
}

// tempFactors returns the two temperature multipliers of a corner
// relative to the base temperature: the wire/switch resistance scale
// (linear TCR) and the device drive scale (mobility power law; hot
// devices are weaker, so the factor is < 1 above base temperature).
func tempFactors(baseC, cornerC float64) (rScale, driveScale float64) {
	rScale = 1 + float64(wireTCR*(cornerC-baseC))
	driveScale = math.Pow((zeroC+baseC)/(zeroC+cornerC), mobilityExp)
	return rScale, driveScale
}

// Derive applies the corner to a base technology and validates the
// result: the derived Technology is returned only when dram's
// LintTechnology accepts it with zero errors, so every corner entering
// the matrix is lint-clean by construction. The nominal spec returns
// the base bit-for-bit.
func (s Spec) Derive(base dram.Technology) (dram.Technology, error) {
	if err := s.validate(); err != nil {
		return dram.Technology{}, err
	}
	t := base
	t.VDD = base.VDD * s.VDDScale
	t.VPP = base.VPP * s.VPPScale
	t.VBLEQ = float64(base.VBLEQ*s.VDDScale) + s.VBLEQShift
	t.VRefCell = float64(base.VRefCell*s.VDDScale) + s.VRefShift
	rScale, driveScale := tempFactors(base.TempC, s.TempC)
	t.RWire = base.RWire * rScale
	t.RWriteDriver = base.RWriteDriver * rScale
	t.ROutSwitch = base.ROutSwitch * rScale
	// The column applies WWLBoost as a width multiplier on every NMOS it
	// instantiates, so folding the mobility degradation into it weakens
	// (or at cold, strengthens) all access, precharge and select devices
	// coherently.
	t.WWLBoost = base.WWLBoost * driveScale
	t.TempC = s.TempC
	if findings := dram.LintTechnology(t); findings.Count(lint.Error) > 0 {
		return dram.Technology{}, fmt.Errorf("stress: corner %q derives an invalid technology:\n%s",
			s.Name, findings.Summary())
	}
	return t, nil
}

// DeriveParams applies the corner to the analytical model's parameters:
// the embedded technology is derived as in Derive, and the model's
// lumped on-resistances follow the same temperature physics — switch
// channels track the mobility law, the distributed wire floor tracks
// the TCR. The nominal spec returns the base bit-for-bit, preserving
// the nominal fingerprint.
func (s Spec) DeriveParams(base behav.Params) (behav.Params, error) {
	tech, err := s.Derive(base.Tech)
	if err != nil {
		return behav.Params{}, err
	}
	p := base
	p.Tech = tech
	rScale, driveScale := tempFactors(base.Tech.TempC, s.TempC)
	p.RAccess = base.RAccess / driveScale
	p.RPre = base.RPre / driveScale
	p.RCSL = base.RCSL / driveScale
	p.RSA = base.RSA / driveScale
	p.RWire = base.RWire * rScale
	return p, nil
}

// cornerNames projects the Name column.
func cornerNames(specs []Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// EnsureNominal returns the corner list with a nominal corner
// guaranteed present: if none of the given specs is the identity
// derivation, Nominal() is prepended. The relative order of the given
// corners is preserved — matrix row order is submission order.
func EnsureNominal(specs []Spec) []Spec {
	for _, s := range specs {
		if s.IsNominal() {
			return specs
		}
	}
	return append([]Spec{Nominal()}, specs...)
}

// ResolveCorners is the one corner resolver: it ensures a nominal
// corner (EnsureNominal), derives every corner lint-clean from
// dram.Default(), and rejects two corners that derive the same
// technology. Such corners alias one model under both engines — the
// analytical parameters follow from the technology — so they would
// compute the same results under two names. Comparing technologies
// with == is the fingerprint test without building a column, except
// that it also joins temperatures spelled 0 and −0, which hash apart
// but compute the same bits.
func ResolveCorners(specs []Spec) ([]Spec, error) {
	specs = EnsureNominal(specs)
	seen := make(map[dram.Technology]string, len(specs))
	for _, s := range specs {
		t, err := s.Derive(dram.Default())
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[t]; dup {
			return nil, fmt.Errorf("stress: corners %q and %q derive the same technology — they alias one model and would compute the same results; drop one",
				prev, s.Name)
		}
		seen[t] = s.Name
	}
	return specs, nil
}

// Model is one inventory engine's model at one corner: the factory a
// sweep runs on, the fingerprint its results are keyed under, and the
// technology it simulates.
type Model struct {
	Factory     analysis.Factory
	Fingerprint analysis.Fingerprint
	Tech        dram.Technology
}

// NewModel derives an inventory engine's model at a corner: "behav"
// from behav.DefaultParams(), "spice" (the pooled transient column)
// from dram.Default(). It is the one place a request or a corner turns
// an engine name into a model. A spice fingerprint builds a column, so
// callers on a store-hit path cache it.
func NewModel(engine string, spec Spec) (Model, error) {
	switch engine {
	case "behav":
		p, err := spec.DeriveParams(behav.DefaultParams())
		if err != nil {
			return Model{}, err
		}
		return Model{Factory: behav.NewFactory(p), Fingerprint: behav.Fingerprint(p), Tech: p.Tech}, nil
	case "spice":
		t, err := spec.Derive(dram.Default())
		if err != nil {
			return Model{}, err
		}
		fpnt, err := analysis.SpiceFingerprint(t)
		if err != nil {
			return Model{}, err
		}
		return Model{Factory: analysis.NewPooledSpiceFactory(t), Fingerprint: fpnt, Tech: t}, nil
	}
	return Model{}, fmt.Errorf("stress: unknown engine %q (want behav or spice)", engine)
}
