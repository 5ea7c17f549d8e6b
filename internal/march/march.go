// Package march implements march memory tests: the standard notation
// ({⇕(w0); ⇑(r0,w1); …}), a library of classical tests, the paper's
// March PF, a simulator over memsim arrays, and fault-coverage
// evaluation with guarantee semantics (all victim positions, all
// address-order choices for ⇕ elements).
package march

import (
	"fmt"
	"strings"
)

// Order is a march element's addressing order.
type Order int

// Address orders: Up (⇑) ascending, Down (⇓) descending, Any (⇕) either.
const (
	Any Order = iota
	Up
	Down
)

// String renders the order arrow.
func (o Order) String() string {
	switch o {
	case Up:
		return "⇑"
	case Down:
		return "⇓"
	default:
		return "⇕"
	}
}

// Op is one march operation: a read with expected value or a write.
type Op struct {
	// Read distinguishes rX from wX.
	Read bool
	// Data is the written or expected value.
	Data int
}

// String renders "w0", "r1", etc.
func (o Op) String() string {
	k := "w"
	if o.Read {
		k = "r"
	}
	return fmt.Sprintf("%s%d", k, o.Data)
}

// W and R build march operations.
func W(data int) Op { return Op{Data: mustBit(data)} }

// R builds a read operation expecting the given value.
func R(data int) Op { return Op{Read: true, Data: mustBit(data)} }

func mustBit(b int) int {
	if b != 0 && b != 1 {
		panic(fmt.Sprintf("march: data value %d out of range", b))
	}
	return b
}

// Element is one march element: an address order and operations applied
// at each address before advancing.
type Element struct {
	Order Order
	Ops   []Op
}

// String renders "⇑(r0,w1)".
func (e Element) String() string {
	toks := make([]string, len(e.Ops))
	for i, o := range e.Ops {
		toks[i] = o.String()
	}
	return e.Order.String() + "(" + strings.Join(toks, ",") + ")"
}

// Test is a complete march test.
type Test struct {
	// Name is the test's conventional name.
	Name string
	// Elements run in sequence.
	Elements []Element
}

// String renders "{⇕(w0); ⇑(r0,w1); ⇓(r1,w0)}".
func (t Test) String() string {
	parts := make([]string, len(t.Elements))
	for i, e := range t.Elements {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}

// Length returns the test's operation count per cell — the complexity
// figure march tests are quoted with (e.g. March C- is 10N).
func (t Test) Length() int {
	n := 0
	for _, e := range t.Elements {
		n += len(e.Ops)
	}
	return n
}

// MaxAnyElements caps a test's ⇕ elements. A guarantee analysis walks
// all 2^k order assignments of k ⇕ elements, so 16 means 65 536
// assignments; the library's most is March PF's 4.
const MaxAnyElements = 16

// Validate checks structural sanity: non-empty elements and at most
// MaxAnyElements ⇕ elements.
func (t Test) Validate() error {
	if len(t.Elements) == 0 {
		return fmt.Errorf("march: test %q has no elements", t.Name)
	}
	for i, e := range t.Elements {
		if len(e.Ops) == 0 {
			return fmt.Errorf("march: test %q element %d is empty", t.Name, i)
		}
	}
	if k := t.AnyCount(); k > MaxAnyElements {
		return fmt.Errorf("march: test %q has %d ⇕ elements, more than the cap of %d (%d order assignments)",
			t.Name, k, MaxAnyElements, 1<<MaxAnyElements)
	}
	return nil
}

// AnyCount returns the number of ⇕ elements, whose order a guarantee
// analysis must vary: a test has 1 << AnyCount() order assignments.
func (t Test) AnyCount() int {
	k := 0
	for _, e := range t.Elements {
		if e.Order == Any {
			k++
		}
	}
	return k
}
