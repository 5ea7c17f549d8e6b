package march

import "testing"

// FuzzProveDetects drives the detection prover with parser-accepted
// march tests and checks its claims against the brute-force simulator:
// a proved Detects must detect on 2×2 and a proved Misses must catch
// zero scenarios there, for every paper-catalog fault, a classical
// two-cell sample and every partial two-cell entry. Unknown makes no
// claim and needs no check; the prover must also never panic on any
// accepted test.
func FuzzProveDetects(f *testing.F) {
	for _, t := range All() {
		f.Add(t.String())
	}
	f.Add("{m(w0); u(r0,w1); d(r1,w0)}")
	f.Add("{⇕(w0)}")
	f.Add("{⇑(r1,w0,r0); ⇓(r0)}")
	f.Add("{m(w1); m(r1,w0); m(r0)}")
	f.Add("{u(w0); u(r0,r0,w1); d(w0,r0)}")

	twos := TwoCellCatalog()[:8]
	for _, e := range TwoCellCatalog() {
		if e.Partial {
			twos = append(twos, e)
		}
	}

	f.Fuzz(func(t *testing.T, s string) {
		tst, err := Parse("fuzz", s)
		if err != nil {
			return
		}
		// Bound the scenario space: long tests and many ⇕ elements blow
		// up both the prover's order enumeration and the dynamic sweep.
		if tst.Length() > 12 || len(tst.AnyElements()) > 3 {
			return
		}
		for _, e := range PaperFaultCatalog() {
			p := ProveDetects(tst, e)
			switch p.Verdict {
			case VerdictDetects:
				det, caught, total, err := Detects(tst, 2, 2, e.Make)
				if err != nil {
					t.Fatalf("%q vs %s: %v", s, e.Name, err)
				}
				if !det {
					t.Fatalf("FALSE CLAIM: %q proved to detect %s but caught %d/%d on 2x2", s, e.Name, caught, total)
				}
			case VerdictMisses:
				_, caught, total, err := Detects(tst, 2, 2, e.Make)
				if err != nil {
					t.Fatalf("%q vs %s: %v", s, e.Name, err)
				}
				if caught != 0 {
					t.Fatalf("FALSE CLAIM: %q proved to miss %s but caught %d/%d on 2x2", s, e.Name, caught, total)
				}
			}
		}
		for _, e := range twos {
			p := ProveDetectsTwoCell(tst, e)
			switch p.Verdict {
			case VerdictDetects:
				det, caught, total, err := DetectsTwoCellEntry(tst, 2, 2, e)
				if err != nil {
					t.Fatalf("%q vs twocell %s: %v", s, e.Name, err)
				}
				if !det {
					t.Fatalf("FALSE CLAIM: %q proved to detect twocell %s but caught %d/%d on 2x2", s, e.Name, caught, total)
				}
			case VerdictMisses:
				_, caught, total, err := DetectsTwoCellEntry(tst, 2, 2, e)
				if err != nil {
					t.Fatalf("%q vs twocell %s: %v", s, e.Name, err)
				}
				if caught != 0 {
					t.Fatalf("FALSE CLAIM: %q proved to miss twocell %s but caught %d/%d on 2x2", s, e.Name, caught, total)
				}
			}
		}
	})
}
