// Package bitsim is the bit-plane march engine: detection scenarios
// live in the bits of machine words and march operations become
// word-wide bitwise kernels instead of the scalar simulator's per-cell
// hook dispatch.
//
// The engine exploits the structure of guarantee-semantics evaluation:
// scenario v is "the fault injected at victim v", and in any scenario
// every non-victim cell follows the same fault-free trajectory, because
// a march element applies identical operations at every address and the
// single injected fault only touches its victim. The fault-free array
// state is therefore a scalar per operation step, and the only
// per-scenario state is the victim cell itself plus the hidden line
// state *as seen by the victim* — a handful of ternary bit planes
// indexed by lane.
//
// Every kernel is lane-local, and every mask it builds is a union of a
// few address intervals: the walk edges, the boundary rows and, for a
// two-cell aggressor offset, their shifts. So a lane stands for a class
// of addresses, the interval between two consecutive cut points where
// some mask can change, and all addresses of a class follow one
// trajectory; a caught lane counts with its class size. A single-cell
// walk has at most 5 classes and a two-cell offset at most 15, so one
// walk costs O(len) one-word operations whatever the array size, on the
// caller's goroutine. A mask that would split a class is an error,
// never a wrong count.
//
// The scalar memsim engine remains the differential oracle: the
// equivalence suite proves both engines produce identical verdicts for
// every library test × catalog entry on all shared geometries, and a
// dense lane set (one class per address, the same kernels) checks the
// classes at sizes the scalar engine cannot reach.
package bitsim

// plane is a ternary (0/1/X) value per lane, packed as value and known
// bitmaps: lane i holds X when k's bit is clear, else v's bit.
type plane struct {
	v, k []uint64
}

// arena cuts a run's planes and scratch words, w words each, off the
// front of one backing array.
type arena struct {
	rest []uint64
	w    int
}

// words cuts one w-word slice.
func (a *arena) words() []uint64 {
	s := a.rest[:a.w:a.w]
	a.rest = a.rest[a.w:]
	return s
}

// plane cuts a plane's value and known words.
func (a *arena) plane() plane {
	return plane{v: a.words(), k: a.words()}
}

// setConst sets every lane to t (0, 1 or X).
func (p plane) setConst(t int) {
	switch t {
	case 0:
		wzero(p.v)
		wfill(p.k)
	case 1:
		wfill(p.v)
		wfill(p.k)
	default:
		wzero(p.v)
		wzero(p.k)
	}
}

// eq writes the lanes where p is known and equals the bit want.
func (p plane) eq(want int, dst []uint64) {
	if want == 1 {
		for i := range dst {
			dst[i] = p.k[i] & p.v[i]
		}
	} else {
		for i := range dst {
			dst[i] = p.k[i] &^ p.v[i]
		}
	}
}

// setConstWhere sets the lanes selected by mask to t, keeping the rest.
func (p plane) setConstWhere(mask []uint64, t int) {
	switch t {
	case 0:
		for i := range mask {
			p.v[i] &^= mask[i]
			p.k[i] |= mask[i]
		}
	case 1:
		for i := range mask {
			p.v[i] |= mask[i]
			p.k[i] |= mask[i]
		}
	default:
		for i := range mask {
			p.v[i] &^= mask[i]
			p.k[i] &^= mask[i]
		}
	}
}

// setPlaneWhere copies q into the lanes selected by mask.
func (p plane) setPlaneWhere(mask []uint64, q plane) {
	for i := range mask {
		p.v[i] = (p.v[i] &^ mask[i]) | (q.v[i] & mask[i])
		p.k[i] = (p.k[i] &^ mask[i]) | (q.k[i] & mask[i])
	}
}

func (p plane) copyFrom(q plane) {
	copy(p.v, q.v)
	copy(p.k, q.k)
}

func wzero(d []uint64) {
	for i := range d {
		d[i] = 0
	}
}

func wfill(d []uint64) {
	for i := range d {
		d[i] = ^uint64(0)
	}
}

// wand, wor, wandnot fold s into d.
func wand(d, s []uint64) {
	for i := range d {
		d[i] &= s[i]
	}
}

func wor(d, s []uint64) {
	for i := range d {
		d[i] |= s[i]
	}
}

func wandnot(d, s []uint64) {
	for i := range d {
		d[i] &^= s[i]
	}
}

// wnot writes the complement of s into d.
func wnot(d, s []uint64) {
	for i := range d {
		d[i] = ^s[i]
	}
}
