package march

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/memsim"
)

// Mismatch is one failing read observed while running a test.
type Mismatch struct {
	// Element and OpIndex locate the failing operation in the test.
	Element, OpIndex int
	// Addr is the failing address.
	Addr int
	// Expected and Got are the read values.
	Expected, Got int
}

// String renders a compact diagnostic.
func (m Mismatch) String() string {
	return fmt.Sprintf("element %d op %d @%d: expected %d, got %d", m.Element, m.OpIndex, m.Addr, m.Expected, m.Got)
}

// Run executes the test on the array. anyOrders fixes the concrete order
// of each ⇕ element (indexed by occurrence; missing entries default to
// Up). It returns every read mismatch. Addresses are validated against
// the array before each operation, so a malformed geometry surfaces as
// an error from the walk rather than a panic out of the simulator.
func (t Test) Run(arr *memsim.Array, anyOrders []Order) ([]Mismatch, error) {
	var out []Mismatch
	anyIdx := 0
	for ei, e := range t.Elements {
		order := e.Order
		if order == Any {
			order = Up
			if anyIdx < len(anyOrders) && anyOrders[anyIdx] == Down {
				order = Down
			}
			anyIdx++
		}
		n := arr.Size()
		for k := 0; k < n; k++ {
			addr := k
			if order == Down {
				addr = n - 1 - k
			}
			if err := arr.CheckAddr(addr); err != nil {
				return out, fmt.Errorf("march: element %d: %w", ei, err)
			}
			for oi, op := range e.Ops {
				if !op.Read {
					arr.Write(addr, op.Data)
					continue
				}
				got := arr.Read(addr)
				// Unknown reads are adversarially assumed to match: a
				// test only *guarantees* detection via known values.
				if got != memsim.X && got != op.Data {
					out = append(out, Mismatch{Element: ei, OpIndex: oi, Addr: addr, Expected: op.Data, Got: got})
				}
			}
		}
	}
	return out, nil
}

// OrderAssignments enumerates all 2^k concrete order choices for the
// test's ⇕ elements: in entry i, bit b of i set means the b-th ⇕
// element runs ⇓.
func (t Test) OrderAssignments() [][]Order {
	k := t.AnyCount()
	total := 1 << k
	out := make([][]Order, 0, total)
	for mask := 0; mask < total; mask++ {
		orders := make([]Order, k)
		for b := 0; b < k; b++ {
			if mask&(1<<b) != 0 {
				orders[b] = Down
			} else {
				orders[b] = Up
			}
		}
		out = append(out, orders)
	}
	return out
}

// ResolvedOrders returns, for each OrderAssignments entry in its order,
// the concrete order of every element: a ⇕ element takes the entry's
// next order, any other element keeps its own. The detection prover and
// the bit-plane engine walk these; Run resolves its anyOrders itself,
// so the differential suites compare it against independent code.
func (t Test) ResolvedOrders() [][]Order {
	total, n := 1<<t.AnyCount(), len(t.Elements)
	// One backing array holds every resolution, filled straight from
	// each entry's index bits.
	flat := make([]Order, total*n)
	out := make([][]Order, total)
	for mask := range out {
		orders := flat[mask*n : (mask+1)*n : (mask+1)*n]
		b := 0
		for j, e := range t.Elements {
			orders[j] = e.Order
			if e.Order == Any {
				orders[j] = Up
				if mask&(1<<b) != 0 {
					orders[j] = Down
				}
				b++
			}
		}
		out[mask] = orders
	}
	return out
}

// Detects reports whether the test *guarantees* detection of the fault
// family produced by mk: for every victim address in a rows×cols array
// and every ⇕-order assignment, running the test on a fresh array with
// mk(victim) injected yields at least one mismatch.
//
// The first return is the guarantee; the second counts (victim, order)
// scenarios in which the fault was caught, out of the third (total
// scenarios) — a partial-detection measure.
func Detects(t Test, rows, cols int, mk func(victim int) memsim.Fault) (bool, int, int, error) {
	if err := t.Validate(); err != nil {
		return false, 0, 0, err
	}
	if rows <= 0 || cols <= 0 {
		return false, 0, 0, fmt.Errorf("march: invalid geometry %dx%d", rows, cols)
	}
	assignments := t.OrderAssignments()
	caught, total := 0, 0
	for victim := 0; victim < rows*cols; victim++ {
		for _, orders := range assignments {
			arr := memsim.NewArray(rows, cols)
			if err := arr.Inject(mk(victim)); err != nil {
				return false, 0, 0, err
			}
			total++
			mm, err := t.Run(arr, orders)
			if err != nil {
				return false, 0, 0, err
			}
			if len(mm) > 0 {
				caught++
			}
		}
	}
	return caught == total && total > 0, caught, total, nil
}
