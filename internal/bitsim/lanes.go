package bitsim

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/memtest/partialfaults/internal/march"
)

// geom is the evaluated array geometry. Address a sits at row a/cols,
// column a%cols; same column = same bit line, matching memsim.
type geom struct {
	rows, cols, n int
}

func (g geom) firstAddr(o march.Order) int {
	if o == march.Down {
		return g.n - 1
	}
	return 0
}

func (g geom) lastAddr(o march.Order) int {
	if o == march.Down {
		return 0
	}
	return g.n - 1
}

// firstRowRange is the address range of the first-visited row: the
// lanes whose column receives no operations before the victim pass.
func (g geom) firstRowRange(o march.Order) (int, int) {
	if o == march.Down {
		return g.n - g.cols, g.n
	}
	return 0, g.cols
}

// lastRowRange is the address range of the last-visited row: the lanes
// whose column receives no operations after the victim pass.
func (g geom) lastRowRange(o march.Order) (int, int) {
	if o == march.Down {
		return 0, g.cols
	}
	return g.n - g.cols, g.n
}

// colPredRange is the address range of the victims whose column holds
// at least one address the walk visits before the aggressor v+δ. The
// condition is row-uniform, hence one range; only the order that visits
// the aggressor first, (o == Up) == (δ < 0), asks for it.
func (g geom) colPredRange(o march.Order, delta int) (int, int) {
	if o == march.Up {
		// δ < 0: a column predecessor exists iff row(v)·cols > -δ.
		return ((-delta)/g.cols + 1) * g.cols, g.n
	}
	// δ > 0: one exists iff (rows-1-row(v))·cols > δ.
	return 0, (g.rows - 1 - delta/g.cols) * g.cols
}

// singleCellCuts lists every address where a single-cell mask can
// change: the walk-first and walk-last addresses and the first- and
// last-visited rows of both orders.
func (g geom) singleCellCuts() []int {
	return []int{0, 1, g.cols, g.n - g.cols, g.n - 1, g.n}
}

// twoCellCuts adds the shifted masks of aggressor offset δ: the
// in-array pairs, the aggressor at a walk edge or in a first-visited
// row, and the column-predecessor range of both orders.
func (g geom) twoCellCuts(d int) []int {
	cuts := append(g.singleCellCuts(), -d, 1-d, g.n-1-d, g.n-d, g.cols-d, g.n-g.cols-d)
	for _, o := range []march.Order{march.Up, march.Down} {
		a, b := g.colPredRange(o, d)
		cuts = append(cuts, a, b)
	}
	return cuts
}

// lanes is the evaluated lane set: lane i stands for the address class
// [cut[i], cut[i+1]). The cuts include every address where a mask the
// kernels build can change, so all addresses of a class see the same
// masks from the same initial state and, every kernel being lane-local,
// follow one trajectory. A caught lane counts with its class size.
type lanes struct {
	cut []int
	// w counts the words of a plane.
	w int
	// up and down are the boundary masks of each order.
	up, down orderMasks
	// err records the first mask that would split a class; the run
	// reports it instead of a count.
	err error
}

// newLanes builds the lane set of an array from its cut points,
// clipped to [0, n], with the boundary masks of both orders.
func newLanes(g geom, cuts []int) *lanes {
	c := append(make([]int, 0, len(cuts)+2), 0, g.n)
	for _, x := range cuts {
		c = append(c, min(max(x, 0), g.n))
	}
	slices.Sort(c)
	c = slices.Compact(c)
	l := &lanes{cut: c, w: (len(c) + 62) / 64}
	l.up, l.down = masksFor(g, l, march.Up), masksFor(g, l, march.Down)
	return l
}

// masks returns the boundary masks of order o.
func (l *lanes) masks(o march.Order) orderMasks {
	if o == march.Down {
		return l.down
	}
	return l.up
}

// rangeMask writes the mask of addresses [a, b), clipped to the array.
// A bound inside a class would split it: the lane set records the error
// and the mask stays empty.
func (l *lanes) rangeMask(a, b int, dst []uint64) {
	wzero(dst)
	a, b = max(a, 0), min(b, l.cut[len(l.cut)-1])
	if a >= b {
		return
	}
	i, iok := slices.BinarySearch(l.cut, a)
	j, jok := slices.BinarySearch(l.cut, b)
	if !iok || !jok {
		if l.err == nil {
			l.err = fmt.Errorf("bitsim: mask [%d, %d) splits a lane class", a, b)
		}
		return
	}
	for k := i / 64; k <= (j-1)/64; k++ {
		w := ^uint64(0)
		if lo := k * 64; lo < i {
			w &= ^uint64(0) << (i - lo)
		}
		if hi := k*64 + 64; hi > j {
			w &= ^uint64(0) >> (hi - j)
		}
		dst[k] |= w
	}
}

// bitMask writes the mask of one address (empty outside the array).
func (l *lanes) bitMask(addr int, dst []uint64) {
	l.rangeMask(addr, addr+1, dst)
}

// laneMask writes the mask of every lane; the tail bits of the last
// word stay clear.
func (l *lanes) laneMask(dst []uint64) {
	l.rangeMask(0, l.cut[len(l.cut)-1], dst)
}

// count sums the class sizes of the lanes set in det.
func (l *lanes) count(det []uint64) int {
	n := 0
	for k, w := range det {
		for ; w != 0; w &= w - 1 {
			i := k*64 + bits.TrailingZeros64(w)
			n += l.cut[i+1] - l.cut[i]
		}
	}
	return n
}

// orderMasks holds the per-order boundary masks of one lane set.
type orderMasks struct {
	// firstBit / lastBit select the walk-first / walk-last lane.
	firstBit, lastBit []uint64
	// firstRow / lastRow select the first- / last-visited row: lanes
	// whose bit line is untouched before / after their victim pass.
	firstRow, lastRow []uint64
}

func masksFor(g geom, l *lanes, o march.Order) orderMasks {
	w, buf := l.w, make([]uint64, 4*l.w)
	m := orderMasks{
		firstBit: buf[:w:w], lastBit: buf[w : 2*w : 2*w],
		firstRow: buf[2*w : 3*w : 3*w], lastRow: buf[3*w:],
	}
	l.bitMask(g.firstAddr(o), m.firstBit)
	l.bitMask(g.lastAddr(o), m.lastBit)
	a, b := g.firstRowRange(o)
	l.rangeMask(a, b, m.firstRow)
	a, b = g.lastRowRange(o)
	l.rangeMask(a, b, m.lastRow)
	return m
}
