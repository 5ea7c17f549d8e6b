package dram

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/device"
	"github.com/memtest/partialfaults/internal/spice"
)

// Defect-site names. Each is a series resistor in the netlist that is
// RWire (≈0 Ω) when healthy and is set to R_def to inject the
// corresponding open of Figure 2.
const (
	SiteOpen1Cell    = "open1.cell"      // inside the victim cell, cap ↔ access device
	SiteOpen2RefCell = "open2.refcell"   // inside the reference cell used for reads
	SiteOpen3Pre     = "open3.precharge" // precharge-level feed into the precharge devices
	SiteOpen4BLPre   = "open4.bl.pre"    // BT between precharge devices and cells (Figure 1)
	SiteOpen5BLCell  = "open5.bl.cell"   // BT between cells and reference cells
	SiteOpen6BLRef   = "open6.bl.ref"    // BT between reference cells and sense amplifier
	SiteOpen7SA      = "open7.sa"        // inside the SA, common source ↔ enable device
	SiteOpen8BLIO    = "open8.bl.io"     // BT between sense amplifier and column select
	SiteOpen9WL      = "open9.wl"        // word line between driver and victim's gate
)

// Short- and bridge-defect sites. Unlike the opens, these are resistors
// that are ABSENT when healthy (ROff) and injected by LOWERING the
// resistance. The paper's Section 2 argues that shorts and bridges do
// not restrict current flow and therefore produce no floating voltages
// and no partial faults; these sites exist to reproduce that negative
// result.
const (
	SiteShortCellGnd = "short.cell.gnd"   // victim storage node to ground
	SiteShortBLVdd   = "short.bl.vdd"     // BT cell region to VDD
	SiteBridgeBLBL   = "bridge.bl.bl"     // BT to BC (intra-pair bridge)
	SiteBridgeCells  = "bridge.cell.cell" // victim to the neighbouring cell
)

// Interesting net names, exported for the analysis and defect layers.
const (
	NetBTPre  = "btP" // BT precharge stub
	NetBTCell = "btC" // BT cell region
	NetBTRef  = "btR" // BT reference region
	NetBTSA   = "btS" // BT sense-amp region
	NetBTIO   = "btX" // BT column-select region
	NetBCPre  = "bcP"
	NetBCCell = "bcC"
	NetBCRef  = "bcR"
	NetBCSA   = "bcS"
	NetBCIO   = "bcX"

	NetCell0Store = "c0s"  // victim storage node
	NetCell1Store = "c1s"  // same-BL aggressor storage node
	NetRefStore   = "dcs"  // reference (dummy) cell storage node on BC
	NetWL0Gate    = "wl0g" // victim access gate past the Open 9 site
	NetOutBuf     = "obuf" // read output buffer hold node
	NetIO         = "io"
	NetIOB        = "iob"
	NetSAN        = "san"
	NetSAP        = "sap"
)

// Control-signal names.
const (
	sigPre  = "pre"
	sigWL0  = "wl0"
	sigWL1  = "wl1"
	sigDWLC = "dwlc"
	sigDWLT = "dwlt"
	sigDRef = "dref"
	sigSEN  = "sen"
	sigSENB = "senb"
	sigCSL  = "csl"
	sigREN  = "ren"
	sigWD   = "wd"
	sigWDB  = "wdb"
	sigWEN  = "wen"
)

// NumCells is the number of regular cells on BT: cell 0 is the victim of
// the fault analysis, cell 1 the same-bit-line aggressor that completing
// operations address.
const NumCells = 2

// Column is the electrical model of one DRAM cell-array column (the
// paper's Figure 2) attached to a transient engine.
type Column struct {
	Tech Technology

	ckt      *circuit.Circuit
	eng      *spice.Engine
	ctl      map[string]*device.VSource
	ctlV     map[string]float64
	sites    map[string]*device.Resistor
	healthy  map[string]float64
	buildErr error

	// Observe, when non-nil, is called after every transient step.
	Observe func(*spice.Engine)
}

// NewColumn builds the column netlist for the given technology and powers
// the rails. Call PowerUp before issuing operations. A non-nil error
// means the netlist itself is malformed (duplicate designator, self-loop)
// — a construction bug, not a defect under study.
func NewColumn(tech Technology) (*Column, error) {
	c := &Column{
		Tech:    tech,
		ckt:     circuit.New(),
		ctl:     map[string]*device.VSource{},
		ctlV:    map[string]float64{},
		sites:   map[string]*device.Resistor{},
		healthy: map[string]float64{},
	}
	c.build()
	if c.buildErr != nil {
		return nil, fmt.Errorf("dram: building column netlist: %w", c.buildErr)
	}
	c.ckt.Freeze()
	eng, err := spice.NewEngine(c.ckt)
	if err != nil {
		return nil, fmt.Errorf("dram: building column engine: %w", err)
	}
	c.eng = eng
	return c, nil
}

// MustNewColumn is NewColumn for contexts where the fixed built-in
// netlist is known-good (tests, examples); it panics on build errors.
func MustNewColumn(tech Technology) *Column {
	c, err := NewColumn(tech)
	if err != nil {
		panic(err)
	}
	return c
}

// node is shorthand for net creation/lookup.
func (c *Column) node(name string) int { return c.ckt.Node(name) }

// add registers an element, retaining the first construction error.
func (c *Column) add(e circuit.Element) {
	if err := c.ckt.Add(e); err != nil && c.buildErr == nil {
		c.buildErr = err
	}
}

// addCtl creates a control voltage source on the named net, initially 0V.
func (c *Column) addCtl(sig, net string) {
	src := device.NewVSource("V_"+sig, c.node(net), 0, device.DC(0))
	c.add(src)
	c.ctl[sig] = src
	c.ctlV[sig] = 0
}

// addSite creates a named open-defect-site resistor (healthy = RWire).
func (c *Column) addSite(site string, a, b int) {
	r := device.NewResistor(SiteElementName(site), a, b, c.Tech.RWire)
	c.add(r)
	c.sites[site] = r
	c.healthy[site] = c.Tech.RWire
}

// addShortSite creates a named short/bridge-site resistor (healthy =
// ROff, i.e. absent).
func (c *Column) addShortSite(site string, a, b int) {
	r := device.NewResistor(SiteElementName(site), a, b, c.Tech.ROff)
	c.add(r)
	c.sites[site] = r
	c.healthy[site] = c.Tech.ROff
}

// SiteElementName returns the designator of the series resistor that
// models the named defect site, for analyses that address the netlist by
// element (e.g. netlint's floating-line prediction).
func SiteElementName(site string) string { return "R_" + site }

func (c *Column) build() {
	t := c.Tech
	gnd := 0

	// Rails.
	vddn := c.node("vddn")
	c.add(device.NewVSource("V_vdd", vddn, gnd, device.DC(t.VDD)))
	vrefn := c.node("vref")
	c.add(device.NewVSource("V_refcell", vrefn, gnd, device.DC(t.VRefCell)))
	vbleqS := c.node("vbleqS")
	c.add(device.NewVSource("V_bleq", vbleqS, gnd, device.DC(t.VBLEQ)))
	// Each bit line has its own precharge feed (no equalizer bridging the
	// pair), so an open in the BT feed — the paper's Open 3 — leaves BT
	// floating while BC still precharges.
	vbleqFT := c.node("vbleqFT")
	c.addSite(SiteOpen3Pre, vbleqS, vbleqFT)
	vbleqFC := c.node("vbleqFC")
	c.add(device.NewResistor("R_bleqC", vbleqS, vbleqFC, t.RWire))

	// Bit-line segments with capacitance and defect-site series resistors.
	bt := []int{c.node(NetBTPre), c.node(NetBTCell), c.node(NetBTRef), c.node(NetBTSA), c.node(NetBTIO)}
	bc := []int{c.node(NetBCPre), c.node(NetBCCell), c.node(NetBCRef), c.node(NetBCSA), c.node(NetBCIO)}
	segC := []float64{t.CBLPre, t.CBLCell, t.CBLRef, t.CBLSA, t.CBLIO}
	for i, n := range bt {
		c.add(device.NewCapacitor(fmt.Sprintf("C_bt%d", i), n, gnd, segC[i]))
		c.add(device.NewCapacitor(fmt.Sprintf("C_bc%d", i), bc[i], gnd, segC[i]))
	}
	c.addSite(SiteOpen4BLPre, bt[0], bt[1])
	c.addSite(SiteOpen5BLCell, bt[1], bt[2])
	c.addSite(SiteOpen6BLRef, bt[2], bt[3])
	c.addSite(SiteOpen8BLIO, bt[3], bt[4])
	for i := 0; i < 4; i++ {
		c.add(device.NewResistor(fmt.Sprintf("R_bc%d", i), bc[i], bc[i+1], t.RWire))
	}

	nmos := device.DefaultNMOS()
	nmos.W *= t.WWLBoost
	pmos := device.DefaultPMOS()

	// Precharge devices: BT and BC to the precharge level.
	c.addCtl(sigPre, "pre")
	pre := c.node("pre")
	c.add(device.NewNMOS("M_pbt", bt[0], pre, vbleqFT, nmos))
	c.add(device.NewNMOS("M_pbc", bc[0], pre, vbleqFC, nmos))

	// Victim cell (cell 0) on BT with Open 1 and Open 9 sites.
	c.addCtl(sigWL0, "wl0d")
	wl0d := c.node("wl0d")
	wl0g := c.node(NetWL0Gate)
	c.addSite(SiteOpen9WL, wl0d, wl0g)
	c.add(device.NewCapacitor("C_wl0g", wl0g, gnd, t.CWLGate))
	c0a := c.node("c0a")
	c.add(device.NewNMOS("M_c0", bt[1], wl0g, c0a, nmos))
	c0s := c.node(NetCell0Store)
	c.addSite(SiteOpen1Cell, c0a, c0s)
	c.add(device.NewCapacitor("C_c0", c0s, gnd, t.CCell))

	// Aggressor cell (cell 1) on the same BT, defect-free.
	c.addCtl(sigWL1, "wl1")
	wl1 := c.node("wl1")
	c1s := c.node(NetCell1Store)
	c.add(device.NewNMOS("M_c1", bt[1], wl1, c1s, nmos))
	c.add(device.NewCapacitor("C_c1", c1s, gnd, t.CCell))

	// Reference (dummy) cell on BC, fired when reading BT cells, with the
	// Open 2 site; reset to VRefCell during precharge.
	c.addCtl(sigDWLC, "dwlc")
	c.addCtl(sigDRef, "dref")
	dwlc := c.node("dwlc")
	dref := c.node("dref")
	dca := c.node("dca")
	c.add(device.NewNMOS("M_dc", bc[2], dwlc, dca, nmos))
	dcs := c.node(NetRefStore)
	c.addSite(SiteOpen2RefCell, dca, dcs)
	c.add(device.NewCapacitor("C_dc", dcs, gnd, t.CRefCell))
	c.add(device.NewNMOS("M_dcr", dcs, dref, vrefn, nmos))

	// Mirror dummy cell on BT (fires for BC-side reads; structural only).
	c.addCtl(sigDWLT, "dwlt")
	dwlt := c.node("dwlt")
	dts := c.node("dts")
	c.add(device.NewNMOS("M_dt", bt[2], dwlt, dts, nmos))
	c.add(device.NewCapacitor("C_dt", dts, gnd, t.CRefCell))
	c.add(device.NewNMOS("M_dtr", dts, dref, vrefn, nmos))

	// Sense amplifier: cross-coupled pairs with enable devices; the Open 7
	// site sits between the NMOS common source and its enable transistor.
	san := c.node(NetSAN)
	sap := c.node(NetSAP)
	// The imbalance strengthens the devices that drive BT high / BC low,
	// fixing the zero-differential resolution polarity (see Technology).
	nmosStrong := nmos
	nmosStrong.W *= 1 + t.SAImbalance
	pmosStrong := pmos
	pmosStrong.W *= 1 + t.SAImbalance
	c.add(device.NewNMOS("M_sn1", bt[3], bc[3], san, nmos))
	c.add(device.NewNMOS("M_sn2", bc[3], bt[3], san, nmosStrong))
	c.add(device.NewPMOS("M_sp1", bt[3], bc[3], sap, pmosStrong))
	c.add(device.NewPMOS("M_sp2", bc[3], bt[3], sap, pmos))
	c.add(device.NewCapacitor("C_san", san, gnd, t.CSACommon))
	c.add(device.NewCapacitor("C_sap", sap, gnd, t.CSACommon))
	c.addCtl(sigSEN, "sen")
	c.addCtl(sigSENB, "senb")
	sanE := c.node("sanE")
	c.addSite(SiteOpen7SA, san, sanE)
	senNode := c.node("sen")
	senbNode := c.node("senb")
	c.add(device.NewNMOS("M_sen", sanE, senNode, gnd, nmos))
	c.add(device.NewPMOS("M_sep", sap, senbNode, vddn, pmos))
	// SA common nodes precharge from the healthy feed.
	c.add(device.NewNMOS("M_psan", san, pre, vbleqFC, nmos))
	c.add(device.NewNMOS("M_psap", sap, pre, vbleqFC, nmos))

	// Column select into the IO pair; wider devices so the write driver
	// can overpower the sense amplifier.
	c.addCtl(sigCSL, "csl")
	csl := c.node("csl")
	csn := nmos
	csn.W = 4e-6
	io := c.node(NetIO)
	iob := c.node(NetIOB)
	c.add(device.NewNMOS("M_cs1", bt[4], csl, io, csn))
	c.add(device.NewNMOS("M_cs2", bc[4], csl, iob, csn))
	c.add(device.NewCapacitor("C_io", io, gnd, t.CIO))
	c.add(device.NewCapacitor("C_iob", iob, gnd, t.CIO))

	// Write driver: switched rail drivers onto IO/IOB.
	c.addCtl(sigWD, "wd")
	c.addCtl(sigWDB, "wdb")
	c.addCtl(sigREN, "ren")
	wd := c.node("wd")
	wdb := c.node("wdb")
	c.addCtl(sigWEN, "wen")
	wen := c.node("wen")
	c.add(device.NewSwitch("SW_wd", io, wd, wen, gnd, t.VDD/2, t.RWriteDriver, t.ROff))
	c.add(device.NewSwitch("SW_wdb", iob, wdb, wen, gnd, t.VDD/2, t.RWriteDriver, t.ROff))

	// Read output buffer: sampled from IO through a switch; the hold cap
	// keeps the last read value — the "state of the output buffer" the
	// paper treats as a floating initialization target.
	ren := c.node("ren")
	obuf := c.node(NetOutBuf)
	c.add(device.NewSwitch("SW_out", io, obuf, ren, gnd, t.VDD/2, t.ROutSwitch, t.ROff))
	c.add(device.NewCapacitor("C_out", obuf, gnd, t.COut))

	// Short/bridge sites (absent when healthy).
	c.addShortSite(SiteShortCellGnd, c0s, gnd)
	c.addShortSite(SiteShortBLVdd, bt[1], vddn)
	c.addShortSite(SiteBridgeBLBL, bt[1], bc[1])
	c.addShortSite(SiteBridgeCells, c0s, c1s)
}

// Engine exposes the underlying transient engine (used by the analysis to
// set floating node voltages).
func (c *Column) Engine() *spice.Engine { return c.eng }

// Circuit exposes the underlying netlist for static analysis (netlint).
// Callers must not mutate it.
func (c *Column) Circuit() *circuit.Circuit { return c.ckt }

// SetSiteResistance injects an open of the given resistance at the named
// defect site. Restoring health means setting it back to Tech.RWire.
func (c *Column) SetSiteResistance(site string, ohms float64) {
	r, ok := c.sites[site]
	if !ok {
		panic(fmt.Sprintf("dram: unknown defect site %q", site))
	}
	r.SetResistance(ohms)
	// The site resistor is part of the engine's cached static stamp.
	c.eng.InvalidateStamps()
}

// Reset returns the column to the state of a freshly built one: every
// defect site healthy, every control source at DC 0 V, engine solution,
// clock and element state zeroed. Together with SetSiteResistance and
// PowerUp it lets a pool recycle columns across sweep grid points
// instead of rebuilding the netlist, reproducing the fresh-build state
// bit for bit (the reset column takes exactly the same code path a new
// one would).
func (c *Column) Reset() {
	for site := range c.sites {
		c.RestoreSite(site)
	}
	for sig, src := range c.ctl {
		src.SetWaveform(device.DC(0))
		c.ctlV[sig] = 0
	}
	c.eng.Reset()
}

// State is an opaque snapshot of a column's full dynamic state, as
// captured by Snapshot and reinstated by Restore.
type State struct {
	x     []float64
	time  float64
	waves map[string]device.Waveform
	ctlV  map[string]float64
}

// Snapshot captures the column's dynamic state: node voltages, clock,
// scheduled control waveforms and their logical levels. Defect-site
// resistances are deliberately not captured — a snapshot may only be
// restored onto the same column (or one configured identically), which
// is how the analysis layer's replay cache uses it. Waveform objects are
// immutable once scheduled, so the snapshot shares them.
func (c *Column) Snapshot() *State {
	s := &State{
		time:  c.eng.Time(),
		waves: make(map[string]device.Waveform, len(c.ctl)),
		ctlV:  make(map[string]float64, len(c.ctlV)),
	}
	s.x, s.time = c.eng.State()
	for sig, src := range c.ctl {
		s.waves[sig] = src.Waveform()
	}
	for sig, v := range c.ctlV {
		s.ctlV[sig] = v
	}
	return s
}

// Restore reinstates a Snapshot taken from this column (or an
// identically configured one). Only valid under backward-Euler
// integration — the default for every column engine.
func (c *Column) Restore(s *State) {
	c.eng.RestoreState(s.x, s.time)
	for sig, src := range c.ctl {
		src.SetWaveform(s.waves[sig])
		c.ctlV[sig] = s.ctlV[sig]
	}
}

// SiteResistance returns the current resistance of a defect site.
func (c *Column) SiteResistance(site string) float64 {
	r, ok := c.sites[site]
	if !ok {
		panic(fmt.Sprintf("dram: unknown defect site %q", site))
	}
	return r.Resistance()
}

// Sites returns all defect-site names (opens, shorts and bridges).
func (c *Column) Sites() []string {
	out := make([]string, 0, len(c.sites))
	for s := range c.sites {
		out = append(out, s)
	}
	return out
}

// HealthyResistance returns the defect-free value of a site: RWire for
// open sites, ROff for short/bridge sites.
func (c *Column) HealthyResistance(site string) float64 {
	h, ok := c.healthy[site]
	if !ok {
		panic(fmt.Sprintf("dram: unknown defect site %q", site))
	}
	return h
}

// RestoreSite returns a site to its healthy value.
func (c *Column) RestoreSite(site string) {
	c.SetSiteResistance(site, c.HealthyResistance(site))
}

// SetNodeVoltages overwrites the state of the named nets with v — the
// paper's floating-voltage initialization.
func (c *Column) SetNodeVoltages(v float64, nets ...string) {
	for _, n := range nets {
		c.eng.SetNodeVoltage(n, v)
	}
}

// Voltage returns the present voltage of the named net.
func (c *Column) Voltage(net string) float64 { return c.eng.Voltage(net) }

// CellVoltage returns the storage-node voltage of cell 0 or 1.
func (c *Column) CellVoltage(cell int) float64 {
	return c.eng.Voltage(c.cellStoreNet(cell))
}

// CellBit classifies the stored voltage of a cell as a logic bit.
func (c *Column) CellBit(cell int) int {
	if c.CellVoltage(cell) > c.Tech.LogicThreshold() {
		return 1
	}
	return 0
}

// OutputVoltage returns the output-buffer voltage.
func (c *Column) OutputVoltage() float64 { return c.eng.Voltage(NetOutBuf) }

// OutputBit classifies the output-buffer voltage as a logic bit.
func (c *Column) OutputBit() int {
	if c.OutputVoltage() > c.Tech.LogicThreshold() {
		return 1
	}
	return 0
}

func (c *Column) cellStoreNet(cell int) string {
	switch cell {
	case 0:
		return NetCell0Store
	case 1:
		return NetCell1Store
	}
	panic(fmt.Sprintf("dram: cell index %d out of range", cell))
}
