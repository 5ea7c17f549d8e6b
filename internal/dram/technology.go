// Package dram models the embedded-DRAM cell-array column of Figure 2 in
// the paper at the electrical level: 1T1C memory cells, reference (dummy)
// cells, precharge/equalize devices, a cross-coupled sense amplifier,
// column select, write driver and read output buffer — all simulated with
// the transient engine in internal/spice.
//
// The netlist exposes named defect sites (the paper's Opens 1–9) as
// series resistors whose value can be swept, and named floating-voltage
// groups (bit line, cell node, reference cell, word line, output buffer)
// that the fault analysis initializes to the swept voltage U.
package dram

// Technology collects the electrical and timing parameters of the
// simulated 0.35 µm-class column. Values are calibrated so that the
// fault-region thresholds land on the axes the paper publishes (see
// DESIGN.md §6); the region *shapes* are emergent.
type Technology struct {
	// VDD is the supply voltage.
	VDD float64
	// VPP is the boosted word-line high level (> VDD + Vt so cells see
	// full rail).
	VPP float64
	// VBLEQ is the bit-line precharge/equalize level.
	VBLEQ float64
	// VRefCell is the voltage restored into the reference (dummy) cells
	// during precharge.
	VRefCell float64

	// CCell is the cell storage capacitance.
	CCell float64
	// CRefCell is the reference-cell storage capacitance.
	CRefCell float64
	// CWLGate is the word-line gate capacitance seen past an Open 9.
	CWLGate float64
	// Bit-line segment capacitances (precharge stub, cell region,
	// reference region, sense-amp region, column-select region).
	CBLPre, CBLCell, CBLRef, CBLSA, CBLIO float64
	// CIO is the IO line capacitance, COut the output-buffer hold cap.
	CIO, COut float64
	// CSACommon is the parasitic on the SA common source nodes.
	CSACommon float64

	// RWire is the healthy (defect-free) value of the defect-site series
	// resistors.
	RWire float64
	// RWriteDriver is the on-resistance of the write driver switch.
	RWriteDriver float64
	// ROutSwitch is the on-resistance of the output-buffer sample switch.
	ROutSwitch float64
	// ROff is the off-resistance used by ideal switches.
	ROff float64

	// Timing of one operation's phases, in seconds.
	TRamp    float64 // control-signal ramp time
	TPre     float64 // precharge/equalize phase
	TSettle  float64 // dead time after precharge release
	TShare   float64 // charge-sharing window after WL rise
	TSense   float64 // sense-amp regeneration window
	TWrite   float64 // write-driver drive window
	TIO      float64 // read forwarding window to the output buffer
	TClose   float64 // wrap-up after WL falls
	DT       float64 // transient timestep
	WWLBoost float64 // multiplier on access-device width (layout knob)

	// SAImbalance is the relative width mismatch applied to the sense
	// amplifier so that a zero-differential (no-signal) input resolves
	// deterministically to logic 1 — the polarity the paper's DRAM
	// exhibits (Table 1: reads through high-impedance opens return 1,
	// e.g. RDF0 on Open 1). Physically this stands in for the systematic
	// offset of the authors' SA design; a few percent of width is well
	// inside real device mismatch.
	SAImbalance float64

	// TempC is the junction temperature in degrees Celsius the
	// parameter set is calibrated at. The field itself drives no
	// simulation directly — temperature enters through the scaled
	// resistances and device widths a stress-corner derivation applies —
	// but recording it here makes every derived corner's Technology
	// self-describing and keeps two corners that differ only in
	// temperature from ever sharing a model fingerprint
	// (TechnologyFingerprint renders every field).
	TempC float64
}

// Default returns the calibrated technology used across the repository.
func Default() Technology {
	return Technology{
		VDD:      3.3,
		VPP:      4.6,
		VBLEQ:    1.65,
		VRefCell: 1.65,

		CCell:    30e-15,
		CRefCell: 30e-15,
		CWLGate:  6e-15,
		CBLPre:   20e-15,
		CBLCell:  130e-15,
		CBLRef:   25e-15,
		CBLSA:    45e-15,
		CBLIO:    30e-15,
		CIO:      90e-15,
		COut:     20e-15,

		CSACommon: 12e-15,

		RWire:        1.0,
		RWriteDriver: 300,
		ROutSwitch:   500,
		ROff:         1e12,

		TRamp:    0.2e-9,
		TPre:     3e-9,
		TSettle:  0.3e-9,
		TShare:   2e-9,
		TSense:   3e-9,
		TWrite:   3e-9,
		TIO:      2e-9,
		TClose:   1e-9,
		DT:       0.05e-9,
		WWLBoost: 1,

		SAImbalance: 0.08,

		TempC: 27,
	}
}

// CBLTotal returns the total single bit-line capacitance.
func (t Technology) CBLTotal() float64 {
	return t.CBLPre + t.CBLCell + t.CBLRef + t.CBLSA + t.CBLIO
}

// LogicThreshold is the voltage boundary between logic 0 and 1 used when
// classifying stored states and output levels. It sits slightly below the
// precharge level: with the sense amplifier's resolve-to-1 polarity, a
// cell floating at or near VBLEQ functionally reads as 1, so the
// classification of F must follow the read trip point rather than VDD/2
// exactly.
func (t Technology) LogicThreshold() float64 { return t.VBLEQ - 0.15 }
