package dram

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/device"
)

// set schedules a control signal to ramp from its present value to the
// target over TRamp starting at the current simulation time.
func (c *Column) set(sig string, target float64) {
	src, ok := c.ctl[sig]
	if !ok {
		panic(fmt.Sprintf("dram: unknown control signal %q", sig))
	}
	cur := c.ctlV[sig]
	if cur == target {
		return
	}
	now := c.eng.Time()
	src.SetWaveform(device.NewPWL(
		[2]float64{now, cur},
		[2]float64{now + c.Tech.TRamp, target},
	))
	c.ctlV[sig] = target
}

// run advances the transient by dur seconds.
func (c *Column) run(dur float64) error {
	steps := int(dur/c.Tech.DT + 0.5)
	if steps < 1 {
		steps = 1
	}
	return c.eng.Run(dur, steps, c.Observe)
}

// wlSignal returns the word-line control for a cell index.
func wlSignal(cell int) string {
	switch cell {
	case 0:
		return sigWL0
	case 1:
		return sigWL1
	}
	panic(fmt.Sprintf("dram: cell index %d out of range", cell))
}

// Precharge runs one precharge/equalize phase: bit lines and SA common
// nodes to VBLEQ, reference cells restored to VRefCell, everything else
// deasserted.
func (c *Column) Precharge() error {
	t := c.Tech
	c.set(sigWL0, 0)
	c.set(sigWL1, 0)
	c.set(sigDWLC, 0)
	c.set(sigDWLT, 0)
	c.set(sigSEN, 0)
	c.set(sigSENB, t.VDD)
	c.set(sigCSL, 0)
	c.set(sigREN, 0)
	c.set(sigWEN, 0)
	c.set(sigPre, t.VPP)
	c.set(sigDRef, t.VPP)
	return c.run(t.TPre)
}

// PowerUp initializes the column to its standby state: storage nodes
// discharged, reference cells at VRefCell, bit lines and SA common nodes
// at the precharge level, followed by one settling precharge phase. The
// direct state initialization stands in for the long power-up sequence a
// real part performs; the fault analysis overwrites the nodes it studies
// anyway.
func (c *Column) PowerUp() error {
	t := c.Tech
	c.set(sigSENB, t.VDD)
	c.set(sigWD, 0)
	c.set(sigWDB, t.VDD)
	c.SetNodeVoltages(0, NetCell0Store, NetCell1Store, NetOutBuf, NetIO, NetIOB)
	c.SetNodeVoltages(t.VRefCell, NetRefStore, "dts")
	c.SetNodeVoltages(t.VBLEQ,
		NetBTPre, NetBTCell, NetBTRef, NetBTSA, NetBTIO,
		NetBCPre, NetBCCell, NetBCRef, NetBCSA, NetBCIO,
		NetSAN, NetSAP)
	if err := c.Precharge(); err != nil {
		return fmt.Errorf("dram: power-up precharge: %w", err)
	}
	return nil
}

// access runs the shared activate portion of an operation: release
// precharge, raise the addressed word line and the reference word line on
// the complementary bit line, share charge, then regenerate the sense
// amplifier (which also restores the cell).
func (c *Column) access(cell int) error {
	t := c.Tech
	c.set(sigPre, 0)
	c.set(sigDRef, 0)
	if err := c.run(t.TSettle); err != nil {
		return err
	}
	c.set(wlSignal(cell), t.VPP)
	c.set(sigDWLC, t.VPP)
	if err := c.run(t.TShare); err != nil {
		return err
	}
	c.set(sigSEN, t.VDD)
	c.set(sigSENB, 0)
	return c.run(t.TSense)
}

// close wraps up an operation: word lines fall first so the cell keeps
// the bit-line value, then the SA turns off.
func (c *Column) close(cell int) error {
	t := c.Tech
	c.set(wlSignal(cell), 0)
	c.set(sigDWLC, 0)
	if err := c.run(t.TClose); err != nil {
		return err
	}
	c.set(sigSEN, 0)
	c.set(sigSENB, t.VDD)
	return c.run(t.TClose)
}

// Write performs a w0 or w1 operation to the given cell: precharge,
// activate and sense (DRAM writes are read-modify-write at the column
// level), then the write driver overpowers the sense amplifier with the
// new datum while the word line is still up. It is Precharge followed
// by WriteAccess.
func (c *Column) Write(cell, bit int) error {
	if err := c.Precharge(); err != nil {
		return err
	}
	return c.WriteAccess(cell, bit)
}

// WriteAccess runs everything of a write after its leading precharge:
// activate, sense, drive the datum, close. On a precharged column it
// completes the operation Write performs.
func (c *Column) WriteAccess(cell, bit int) error {
	if bit != 0 && bit != 1 {
		panic(fmt.Sprintf("dram: write data %d out of range", bit))
	}
	t := c.Tech
	if err := c.access(cell); err != nil {
		return err
	}
	if bit == 1 {
		c.set(sigWD, t.VDD)
		c.set(sigWDB, 0)
	} else {
		c.set(sigWD, 0)
		c.set(sigWDB, t.VDD)
	}
	c.set(sigCSL, t.VPP)
	c.set(sigWEN, t.VDD)
	if err := c.run(t.TWrite); err != nil {
		return err
	}
	c.set(sigWEN, 0)
	c.set(sigCSL, 0)
	if err := c.run(t.TSettle); err != nil {
		return err
	}
	return c.close(cell)
}

// Read performs a read operation on the given cell and returns the logic
// value captured in the output buffer. It is Precharge followed by
// ReadAccess.
func (c *Column) Read(cell int) (int, error) {
	if err := c.Precharge(); err != nil {
		return 0, err
	}
	return c.ReadAccess(cell)
}

// ReadAccess runs everything of a read after its leading precharge and
// returns the output-buffer value. On a precharged column it completes
// the operation Read performs.
func (c *Column) ReadAccess(cell int) (int, error) {
	t := c.Tech
	if err := c.access(cell); err != nil {
		return 0, err
	}
	c.set(sigCSL, t.VPP)
	c.set(sigREN, t.VDD)
	if err := c.run(t.TIO); err != nil {
		return 0, err
	}
	c.set(sigREN, 0)
	c.set(sigCSL, 0)
	if err := c.run(t.TSettle); err != nil {
		return 0, err
	}
	if err := c.close(cell); err != nil {
		return 0, err
	}
	return c.OutputBit(), nil
}
