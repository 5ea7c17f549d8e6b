package bitsim

import (
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/memsim"
)

// ffOp is one operation of the fault-free trace. Because a march
// element applies the same operations at every address and a single
// injected fault only touches its victim, every non-victim cell follows
// this one scalar trajectory — the collapse that makes the bit-plane
// engine linear instead of quadratic.
type ffOp struct {
	read bool
	data int
	// pre and post are the fault-free cell value around the operation.
	pre, post int
	// driven is the value the operation leaves on the lines it touches
	// (writes drive their data, reads the restored cell value); X drives
	// nothing, matching memsim's unknown-preserving line updates.
	driven int
}

// ffElem is one element's fault-free trace. Nothing in it depends on
// the element orders: every pass of an element runs the same
// operations, and the order only decides which address comes first.
type ffElem struct {
	ops []ffOp
	// tail is the last known driven value of one full pass (X if the
	// whole pass drives nothing known): the line value any lane inherits
	// from a completed fault-free predecessor pass.
	tail int
}

// walk is one ⇕-order assignment of a test: the test's fault-free
// trace under the assignment's resolved element orders.
type walk struct {
	elems  []ffElem
	orders []march.Order
	// mm records a fault-free read mismatch: a read whose expected value
	// differs from a *known* fault-free cell value. Uniformity makes it
	// fire at every address, so any scenario on an array with a second
	// cell is caught.
	mm bool
}

// ffTrace computes the per-element fault-free trace of a test, every
// operation cut from one backing array, and whether it holds a
// fault-free read mismatch.
func ffTrace(t march.Test) ([]ffElem, bool) {
	out := make([]ffElem, len(t.Elements))
	ops := make([]ffOp, t.Length())
	state, mm := memsim.X, false
	for i, e := range t.Elements {
		fe := ffElem{tail: memsim.X, ops: ops[:len(e.Ops):len(e.Ops)]}
		ops = ops[len(e.Ops):]
		for j, op := range e.Ops {
			fo := ffOp{read: op.Read, data: op.Data, pre: state}
			if op.Read {
				fo.driven = state
				if state != memsim.X && state != op.Data {
					mm = true
				}
			} else {
				state = op.Data
				fo.driven = op.Data
			}
			fo.post = state
			fe.ops[j] = fo
			if fo.driven != memsim.X {
				fe.tail = fo.driven
			}
		}
		out[i] = fe
	}
	return out, mm
}

// traces returns one walk per ⇕-order assignment, in ResolvedOrders'
// order. Every walk shares the one fault-free trace.
func traces(t march.Test) []walk {
	elems, mm := ffTrace(t)
	assignments := t.ResolvedOrders()
	out := make([]walk, len(assignments))
	for i, orders := range assignments {
		out[i] = walk{elems: elems, orders: orders, mm: mm}
	}
	return out
}
