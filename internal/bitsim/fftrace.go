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

// ffElem is one element's fault-free trace under a concrete order.
type ffElem struct {
	order march.Order
	ops   []ffOp
	// tail is the last known driven value of one full pass (X if the
	// whole pass drives nothing known): the line value any lane inherits
	// from a completed fault-free predecessor pass.
	tail int
	// mm records a fault-free read mismatch in this element: a read
	// whose expected value differs from a *known* fault-free cell value.
	// Uniformity makes it fire at every address, so any scenario on an
	// array with a second cell is caught.
	mm bool
}

// ffTrace computes the per-element fault-free traces of a test under a
// concrete order assignment.
func ffTrace(t march.Test, orders []march.Order) []ffElem {
	out := make([]ffElem, len(t.Elements))
	state := memsim.X
	for i, e := range t.Elements {
		fe := ffElem{order: orders[i], tail: memsim.X, ops: make([]ffOp, 0, len(e.Ops))}
		for _, op := range e.Ops {
			fo := ffOp{read: op.Read, data: op.Data, pre: state}
			if op.Read {
				fo.driven = state
				if state != memsim.X && state != op.Data {
					fe.mm = true
				}
			} else {
				state = op.Data
				fo.driven = op.Data
			}
			fo.post = state
			fe.ops = append(fe.ops, fo)
			if fo.driven != memsim.X {
				fe.tail = fo.driven
			}
		}
		out[i] = fe
	}
	return out
}

// traces returns the fault-free trace of every ⇕-order assignment.
func traces(t march.Test) [][]ffElem {
	assignments := t.ResolvedOrders()
	out := make([][]ffElem, len(assignments))
	for i, orders := range assignments {
		out[i] = ffTrace(t, orders)
	}
	return out
}
