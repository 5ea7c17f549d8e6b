// Package memsim is the functional (logic-level) memory-array simulator
// used for march-test evaluation. It models an N-cell array with bit-line
// topology (cells in the same column share a bit line) and supports
// injecting fault primitives — including the paper's *partial* faults,
// whose sensitization is mediated by hidden line state (floating bit
// line, output buffer, reference cell, word line) that persists between
// operations because the defect prevents precharge normalization.
//
// Semantics are adversarial for test-guarantee analysis: a fault triggers
// only when its sensitizing condition is *guaranteed* by the operation
// history. Hidden state starts unknown, and unknown never triggers — so
// "detects" means "detects on every device exhibiting the fault", which
// is the property a production march test must have.
package memsim

import "fmt"

// X is the unknown logic value (adversarial: behaves as expected and
// never triggers faults).
const X = -1

// Array is a functional memory array of rows×cols one-bit cells.
// Address a maps to row a/cols, column a%cols; cells in the same column
// share a bit line.
type Array struct {
	rows, cols int
	cells      []int // 0, 1 or X
	faults     []*fault
	cfaults    []*cfault
	remap      map[int][]int // address-decoder fault mapping (nil = identity)
	prevOp     lastOp        // most recent operation (dynamic-fault adjacency)

	// blState is the hidden per-column floating bit-line proxy: the last
	// value driven onto the bit line by any operation in the column
	// (writes drive the written value, reads the restored value).
	blState []int
	// ioState is the hidden output-buffer/IO proxy: the last value
	// driven through the IO path by any operation.
	ioState int
}

// NewArray builds an array with all cells and hidden state unknown.
func NewArray(rows, cols int) *Array {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("memsim: invalid array %dx%d", rows, cols))
	}
	a := &Array{
		rows:    rows,
		cols:    cols,
		cells:   make([]int, rows*cols),
		blState: make([]int, cols),
		ioState: X,
	}
	for i := range a.cells {
		a.cells[i] = X
	}
	for i := range a.blState {
		a.blState[i] = X
	}
	return a
}

// Size returns the number of cells.
func (a *Array) Size() int { return a.rows * a.cols }

// Rows and Cols return the array geometry.
func (a *Array) Rows() int { return a.rows }

// Cols returns the number of columns (bit lines).
func (a *Array) Cols() int { return a.cols }

// Column returns the column (bit line) of an address.
func (a *Array) Column(addr int) int { return addr % a.cols }

// SameBitLine reports whether two addresses share a bit line.
func (a *Array) SameBitLine(x, y int) bool { return a.Column(x) == a.Column(y) }

// Cell returns the stored value of an address (X if unknown), bypassing
// fault effects — the "physical" state used to seed expectations.
func (a *Array) Cell(addr int) int {
	a.check(addr)
	return a.cells[addr]
}

// CheckAddr reports whether an address is inside the array, as an error
// suitable for callers that drive the array from computed address
// streams (the march runner). The internal accessors keep panicking on
// violations — an out-of-range address inside the simulator is a bug,
// not an input condition — but external walks should validate with
// CheckAddr and propagate instead of relying on that panic.
func (a *Array) CheckAddr(addr int) error {
	if addr < 0 || addr >= len(a.cells) {
		return fmt.Errorf("memsim: address %d out of range [0,%d)", addr, len(a.cells))
	}
	return nil
}

func (a *Array) check(addr int) {
	if err := a.CheckAddr(addr); err != nil {
		panic(err.Error())
	}
}

// Write performs a write operation.
func (a *Array) Write(addr, bit int) {
	a.check(addr)
	if bit != 0 && bit != 1 {
		panic(fmt.Sprintf("memsim: write data %d out of range", bit))
	}
	if a.remappedWrite(addr, bit) {
		a.applyStateFaults()
		return
	}
	pre := a.cells[addr]
	// Write-sensitized faults (TF, WDF, coupling …) may divert the
	// stored value; their trigger state is evaluated before this
	// operation is recorded.
	result := bit
	for _, f := range a.faults {
		if nf, hit := f.fireWrite(a, addr, bit); hit {
			result = nf
		}
	}
	for _, c := range a.cfaults {
		if nf, hit := c.fireVictimWrite(a, addr, bit); hit {
			result = nf
		}
	}
	for _, f := range a.faults {
		f.observeOp(a, addr, opRecord{write: true, data: bit})
	}
	a.cells[addr] = result
	// Aggressor-operation coupling faults (CFds) act on their victim.
	for _, c := range a.cfaults {
		c.fireAggressorOp(a, addr, true, bit, pre)
	}
	a.prevOp = lastOp{valid: true, addr: addr, write: true, data: bit, preState: pre}
	// The write driver forces the bit line and IO path to the written
	// value regardless of what the cell actually stored.
	a.blState[a.Column(addr)] = bit
	a.ioState = bit
	a.applyStateFaults()
}

// Read performs a read operation and returns the value the output buffer
// delivers (fault effects included).
func (a *Array) Read(addr int) int {
	a.check(addr)
	if v, ok := a.remappedRead(addr); ok {
		if v != X {
			a.blState[a.Column(addr)] = v
			a.ioState = v
		}
		return v
	}
	stored := a.cells[addr]
	pre := stored
	out := stored
	// Evaluate read-sensitized faults: they may corrupt the cell and/or
	// the output.
	for _, f := range a.faults {
		if newF, newR, hit := f.fireRead(a, addr, stored); hit {
			a.cells[addr] = newF
			out = newR
			stored = newF
		}
	}
	for _, c := range a.cfaults {
		if newF, newR, hit := c.fireVictimRead(a, addr, stored); hit {
			a.cells[addr] = newF
			out = newR
			stored = newF
		}
	}
	// A read of the aggressor may disturb the victim (CFds via rx).
	for _, c := range a.cfaults {
		c.fireAggressorOp(a, addr, false, out, pre)
	}
	for _, f := range a.faults {
		// Reads record the restored cell value (the sense amplifier
		// writes back what it resolved, not what reached the output).
		f.observeOp(a, addr, opRecord{write: false, data: a.cells[addr]})
	}
	// The (restored) cell value drives the bit line; the output drives
	// the IO path. After a destructive read both equal the final state.
	if restored := a.cells[addr]; restored != X {
		a.blState[a.Column(addr)] = restored
	}
	if out != X {
		a.ioState = out
	}
	a.prevOp = lastOp{valid: true, addr: addr, write: false, data: a.cells[addr], preState: pre}
	a.applyStateFaults()
	return out
}

// applyStateFaults lets operation-free (state) faults act: after any
// operation period, an armed state fault flips its victim.
func (a *Array) applyStateFaults() {
	for _, f := range a.faults {
		f.fireState(a)
	}
	for _, c := range a.cfaults {
		c.fireState(a)
	}
}
