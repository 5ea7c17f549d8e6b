// Package fp implements the formal fault-primitive machinery of the
// paper: memory operations, sensitizing operation sequences (SOSes),
// fault primitives <S/F/R> including the *completed* FPs with bracketed
// completing operations (e.g. <1v [w0BL] r1v/0/0>), the FFM taxonomy
// (SF, TF, WDF, RDF, DRDF, IRF), parsing and printing of the paper's
// notation, and exhaustive enumeration of the single-cell FP space with
// the #C/#O counting rules of Section 4.
package fp

import "fmt"

// OpKind distinguishes reads from writes.
type OpKind int

// Operation kinds.
const (
	OpWrite OpKind = iota
	OpRead
)

// Target says which cell an operation addresses.
type Target int

// Operation targets. TargetBitLine is the paper's "BL" subscript: the
// operation goes to *any* cell on the same bit line as the victim.
const (
	TargetVictim Target = iota
	TargetBitLine
)

// Op is one memory operation within an SOS.
type Op struct {
	// Kind is read or write.
	Kind OpKind
	// Data is the written value for writes, or the expected read value
	// for reads.
	Data int
	// Target is the addressed cell.
	Target Target
	// Completing marks the operation as a completing operation (printed
	// in square brackets), added to turn a partial fault into a fault
	// that is sensitized for every floating-voltage value.
	Completing bool
}

// W returns a write operation of the given value to the victim.
func W(data int) Op { return Op{Kind: OpWrite, Data: mustBit(data)} }

// R returns a read operation expecting the given value from the victim.
func R(data int) Op { return Op{Kind: OpRead, Data: mustBit(data)} }

// CW returns a completing write to the victim.
func CW(data int) Op {
	return Op{Kind: OpWrite, Data: mustBit(data), Completing: true}
}

// CWBL returns a completing write to any cell on the victim's bit line.
func CWBL(data int) Op {
	return Op{Kind: OpWrite, Data: mustBit(data), Target: TargetBitLine, Completing: true}
}

func mustBit(b int) int {
	if b != 0 && b != 1 {
		panic(fmt.Sprintf("fp: data value %d out of range", b))
	}
	return b
}

// String renders the bare operation token without subscripts, e.g. "w1".
func (o Op) String() string {
	k := "w"
	if o.Kind == OpRead {
		k = "r"
	}
	return fmt.Sprintf("%s%d", k, o.Data)
}

// withSubscript renders the operation with its target subscript in the
// paper's style ("w0BL", "r1v").
func (o Op) withSubscript() string {
	switch o.Target {
	case TargetBitLine:
		return o.String() + "BL"
	default:
		return o.String() + "v"
	}
}

// Complement returns the operation with its data value flipped, used to
// derive the faulty behaviour of complementary defects [Al-Ars00].
func (o Op) Complement() Op {
	o.Data = 1 - o.Data
	return o
}
