// Package behav is the fast analytical model of the DRAM column: the
// same topology, defect sites, floating nets and operation phases as
// internal/dram, but integrated with a Jacobi-implicit nodal RC update
// and a rule-based sense amplifier instead of full Newton transient
// simulation. It is orders of magnitude faster, which makes
// full-resolution (R_def, U) planes and the Table 1 pipeline cheap, and
// it serves as the fidelity ablation against the electrical model
// (cross-validated in behav tests and the benchmark harness).
package behav

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/dram"
)

// Params tunes the analytical model. Defaults mirror dram.Default().
type Params struct {
	// Tech supplies voltages, capacitances and phase timings.
	Tech dram.Technology
	// DT is the integration step. The Jacobi-implicit update is
	// unconditionally stable, but couplings propagate one hop per step,
	// so DT must stay well below the fastest RC product for accuracy.
	DT float64
	// RAccess is the on-resistance of an access device.
	RAccess float64
	// RPre is the on-resistance of a precharge device.
	RPre float64
	// RCSL is the on-resistance of a column-select device.
	RCSL float64
	// RSA is the characteristic drive resistance of the sense amp.
	RSA float64
	// VOffset is the input-referred SA offset: zero differential
	// resolves to 1 (the dram package's SAImbalance analogue).
	VOffset float64
	// WLOnFraction of VPP above which an access device is fully on.
	WLOnFraction float64
	// RWire is the minimum (distributed-wire) resistance of bit-line
	// segments in the analytical model; healthy defect sites are floored
	// to it so the Jacobi update stays well damped.
	RWire float64
}

// DefaultParams returns the calibrated analytical parameters.
func DefaultParams() Params {
	return Params{
		Tech:         dram.Default(),
		DT:           0.005e-9,
		RAccess:      6e3,
		RPre:         900,
		RCSL:         250,
		RSA:          2e3,
		VOffset:      0.06,
		WLOnFraction: 0.55,
		RWire:        300,
	}
}

// Node indices of the analytical model. The string net names of the dram
// package are interned to these for speed.
const (
	nBTPre = iota
	nBTCell
	nBTRef
	nBTSA
	nBTIO
	nBCPre
	nBCCell
	nBCRef
	nBCSA
	nBCIO
	nCell0
	nCell1
	nRefC
	nRefT
	nWL0Gate
	nIO
	nIOB
	nOutBuf
	numNodes
)

// netIndex maps dram net names to node indices.
var netIndex = map[string]int{
	dram.NetBTPre: nBTPre, dram.NetBTCell: nBTCell, dram.NetBTRef: nBTRef,
	dram.NetBTSA: nBTSA, dram.NetBTIO: nBTIO,
	dram.NetBCPre: nBCPre, dram.NetBCCell: nBCCell, dram.NetBCRef: nBCRef,
	dram.NetBCSA: nBCSA, dram.NetBCIO: nBCIO,
	dram.NetCell0Store: nCell0, dram.NetCell1Store: nCell1,
	dram.NetRefStore: nRefC, "dts": nRefT,
	dram.NetWL0Gate: nWL0Gate,
	dram.NetIO:      nIO, dram.NetIOB: nIOB,
	dram.NetOutBuf: nOutBuf,
}

// Site indices for the defect-site resistances.
const (
	sOpen1 = iota
	sOpen2
	sOpen3
	sOpen4
	sOpen5
	sOpen6
	sOpen7
	sOpen8
	sOpen9
	sShortCellGnd
	sShortBLVdd
	sBridgeBLBL
	sBridgeCells
	numSites
)

// siteIndex maps dram site names to site indices.
var siteIndex = map[string]int{
	dram.SiteOpen1Cell: sOpen1, dram.SiteOpen2RefCell: sOpen2,
	dram.SiteOpen3Pre: sOpen3, dram.SiteOpen4BLPre: sOpen4,
	dram.SiteOpen5BLCell: sOpen5, dram.SiteOpen6BLRef: sOpen6,
	dram.SiteOpen7SA: sOpen7, dram.SiteOpen8BLIO: sOpen8,
	dram.SiteOpen9WL:      sOpen9,
	dram.SiteShortCellGnd: sShortCellGnd, dram.SiteShortBLVdd: sShortBLVdd,
	dram.SiteBridgeBLBL: sBridgeBLBL, dram.SiteBridgeCells: sBridgeCells,
}

// shortSites are absent (ROff) when healthy, unlike the open sites.
var shortSites = map[int]bool{
	sShortCellGnd: true, sShortBLVdd: true, sBridgeBLBL: true, sBridgeCells: true,
}

// Model is the analytical column. It accepts the same net and defect-site
// names as dram.Column so the defect package's float groups apply
// unchanged.
type Model struct {
	P Params

	v     [numNodes]float64
	cap   [numNodes]float64
	sites [numSites]float64
	time  float64
}

// New builds a healthy analytical column in the standby state.
func New(p Params) *Model {
	t := p.Tech
	m := &Model{P: p}
	for i := range m.sites {
		if shortSites[i] {
			m.sites[i] = 1e12 // absent
		} else {
			m.sites[i] = t.RWire
		}
	}
	m.cap = [numNodes]float64{
		nBTPre: t.CBLPre, nBTCell: t.CBLCell, nBTRef: t.CBLRef,
		nBTSA: t.CBLSA, nBTIO: t.CBLIO,
		nBCPre: t.CBLPre, nBCCell: t.CBLCell, nBCRef: t.CBLRef,
		nBCSA: t.CBLSA, nBCIO: t.CBLIO,
		nCell0: t.CCell, nCell1: t.CCell,
		nRefC: t.CRefCell, nRefT: t.CRefCell,
		nWL0Gate: t.CWLGate,
		nIO:      t.CIO, nIOB: t.CIO,
		nOutBuf: t.COut,
	}
	// Standby state.
	for _, n := range []int{nBTPre, nBTCell, nBTRef, nBTSA, nBTIO, nBCPre, nBCCell, nBCRef, nBCSA, nBCIO} {
		m.v[n] = t.VBLEQ
	}
	m.v[nRefC] = t.VRefCell
	m.v[nRefT] = t.VRefCell
	return m
}

// SetSiteResistance injects an open at a named site.
func (m *Model) SetSiteResistance(site string, ohms float64) {
	idx, ok := siteIndex[site]
	if !ok {
		panic(fmt.Sprintf("behav: unknown defect site %q", site))
	}
	if ohms <= 0 {
		panic("behav: resistance must be positive")
	}
	m.sites[idx] = ohms
}

// Voltage returns a net voltage.
func (m *Model) Voltage(net string) float64 {
	idx, ok := netIndex[net]
	if !ok {
		panic(fmt.Sprintf("behav: unknown net %q", net))
	}
	return m.v[idx]
}

// SetNodeVoltages forces the named nets to v.
func (m *Model) SetNodeVoltages(v float64, nets ...string) {
	for _, n := range nets {
		idx, ok := netIndex[n]
		if !ok {
			panic(fmt.Sprintf("behav: unknown net %q", n))
		}
		m.v[idx] = v
	}
}

// CellVoltage returns the storage voltage of cell 0 or 1.
func (m *Model) CellVoltage(cell int) float64 {
	return m.v[storeNode(cell)]
}

// CellBit classifies a cell's stored state.
func (m *Model) CellBit(cell int) int {
	if m.CellVoltage(cell) > m.P.Tech.LogicThreshold() {
		return 1
	}
	return 0
}

// OutputBit classifies the output buffer.
func (m *Model) OutputBit() int {
	if m.v[nOutBuf] > m.P.Tech.LogicThreshold() {
		return 1
	}
	return 0
}

func storeNode(cell int) int {
	switch cell {
	case 0:
		return nCell0
	case 1:
		return nCell1
	}
	panic(fmt.Sprintf("behav: cell index %d out of range", cell))
}
