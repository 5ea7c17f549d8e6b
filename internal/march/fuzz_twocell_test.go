package march

import "testing"

// FuzzCannotCompleteTwoCell drives the two-cell certificate's static
// column (cannotCompleteTwoCell) with arbitrary march notation. Two
// properties must hold for any accepted test: the proof never panics,
// and it stays *sound* against the brute-force simulator — whenever it
// claims a catalog entry cannot be
// completed, an exhaustive DetectsTwoCellEntry sweep on a 2×2 array
// catches zero scenarios. Inputs the parser rejects, and parsed tests
// large enough to make the exhaustive sweep slow, only exercise the
// no-panic property.
func FuzzCannotCompleteTwoCell(f *testing.F) {
	// Seed corpus: the FuzzParseMarch seeds — the library in canonical
	// form plus edge shapes, including healthy-inconsistent tests that
	// must trip the fault-free guard.
	for _, t := range All() {
		f.Add(t.String())
	}
	f.Add("{m(w0); u(r0,w1); d(r1,w0)}")
	f.Add("m(w0)")
	f.Add("{⇕(w0)}")
	f.Add("{⇑(r1,w0,r0); ⇓(r0)}")
	f.Add("")
	f.Add("{u(); d(r1)}")
	f.Add("{x(w0)}")
	f.Add("{⇑(w2)}")
	f.Add("{m(w0); u(r1)}")
	f.Add("{m(w1); d(r1,w0,r0)}")

	catalog := TwoCellCatalog()
	f.Fuzz(func(t *testing.T, s string) {
		tst, err := Parse("fuzz", s)
		if err != nil {
			return
		}
		verify := tst.Length() <= 12 && tst.AnyCount() <= 3
		for _, e := range catalog {
			cannot, why := cannotCompleteTwoCell(tst, e)
			if !cannot {
				continue
			}
			if why == "" {
				t.Fatalf("%q: claim for %s without a reason", s, e.Name)
			}
			if !verify {
				continue
			}
			det, caught, total, err := DetectsTwoCellEntry(tst, 2, 2, e)
			if err != nil {
				t.Fatalf("%q: claimed %s but simulation errored: %v", s, e.Name, err)
			}
			if det || caught > 0 {
				t.Fatalf("UNSOUND: %q claims it cannot complete %s, but the 2x2 sweep caught %d/%d scenarios",
					s, e.Name, caught, total)
			}
		}
	})
}
