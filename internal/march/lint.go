package march

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/lint"
)

// This file is the structural half of the march static-analysis layer:
// lint over march programs (contradictory or premature reads, dead
// elements, pointless order annotations). Which faults a test can or
// cannot detect is the detection prover's question (prove.go).

// unknown mirrors memsim's X for the healthy-state trace.
const unknown = -1

// Lint statically checks one march test and reports findings:
//
//   - invalid-test (error): structural problems from Validate.
//   - contradictory-read (error): a read expecting a value the test
//     itself guarantees is not stored on a healthy memory — the test
//     fails on every fault-free device.
//   - leading-read (warning): a read before the test has ever written;
//     the expected value is an assumption about power-up state.
//   - redundant-element (warning): a non-initial element consisting only
//     of writes none of which changes the established state — it cannot
//     sensitize, observe, or re-drive anything new.
//   - order-irrelevant (warning): an element declaring a fixed address
//     order (⇑/⇓) although its operations are order-insensitive (writes
//     of a single repeated value) — declare ⇕ and keep the freedom.
//   - final-writes-unverified (info): writes after the test's last read;
//     their effect is never read back by this test.
func Lint(t Test) lint.Findings {
	var out lint.Findings
	add := func(sev lint.Severity, rule, msg string) {
		out = append(out, lint.Finding{
			Layer: "march", Rule: rule, Severity: sev,
			Subject: t.Name, Message: msg,
		})
	}
	if err := t.Validate(); err != nil {
		add(lint.Error, "invalid-test", err.Error())
		return out
	}

	trs, _ := traceTest(t)
	wrote := false // has any write happened before the op at hand
	for ei, e := range t.Elements {
		in, pres := trs[ei].in, trs[ei].pres
		writesOnly, changed := true, false
		singleValue := true
		for oi, op := range e.Ops {
			if op.Read {
				writesOnly = false
				switch pres[oi] {
				case unknown:
					if !wrote {
						add(lint.Warning, "leading-read", fmt.Sprintf(
							"element %d (%s) op %d reads before the test ever writes; the expected %d assumes power-up state", ei, e, oi, op.Data))
					}
				case op.Data:
					// Consistent.
				default:
					add(lint.Error, "contradictory-read", fmt.Sprintf(
						"element %d (%s) op %d expects r%d but the healthy state here is provably %d; the test fails on a fault-free memory", ei, e, oi, op.Data, pres[oi]))
				}
			} else {
				wrote = true
				if pres[oi] != op.Data {
					changed = true
				}
				if op.Data != e.Ops[0].Data {
					singleValue = false
				}
			}
		}
		if ei > 0 && writesOnly && !changed && in != unknown {
			add(lint.Warning, "redundant-element", fmt.Sprintf(
				"element %d (%s) only rewrites the already-established state %d; it is dead weight", ei, e, in))
		}
		if e.Order != Any && writesOnly && singleValue {
			add(lint.Warning, "order-irrelevant", fmt.Sprintf(
				"element %d (%s) declares a fixed address order but writes a single value everywhere; the order cannot matter — declare ⇕", ei, e))
		}
	}

	// Trailing writes that no read of this test can ever verify.
	trailing := 0
	for i := len(t.Elements) - 1; i >= 0 && trailing >= 0; i-- {
		sawRead := false
		for j := len(t.Elements[i].Ops) - 1; j >= 0; j-- {
			if t.Elements[i].Ops[j].Read {
				sawRead = true
				break
			}
			trailing++
		}
		if sawRead {
			break
		}
	}
	if trailing > 0 {
		add(lint.Info, "final-writes-unverified", fmt.Sprintf(
			"the final %d write(s) are never read back by this test", trailing))
	}
	out.Sort()
	return out
}

// LintAll lints every test in a set.
func LintAll(tests []Test) lint.Findings {
	var out lint.Findings
	for _, t := range tests {
		out = append(out, Lint(t)...)
	}
	out.Sort()
	return out
}
