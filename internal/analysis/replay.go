package analysis

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

// ReplayCache accelerates repeated SOS applications against one
// (open, floating-group) pair by sharing simulation prefixes. The
// completion search evaluates dozens of candidate sequences per probe
// point that differ only in their tails; a fresh-build run re-simulates
// power-up, initialization and the shared operations every time. The
// cache instead keeps, per probe resistance, one live Snapshotter memory
// and a prefix tree whose edges are protocol steps —
//
//	setup(init, u) → (precharge → access(kind, cell, data))* [→ precharge]
//
// — and whose nodes hold the memory state snapshot plus the observed
// victim bit and read value after that step. Every operation starts
// with the same precharge (Memory.Idle), so the precharge is an edge of
// its own: the sequences that branch after one state (0, 0w0, 0w1 and
// 0r0 at one (R_def, U), or every completion candidate that extends one
// prefix) simulate that precharge once. An SOS evaluation walks the
// tree, restores the deepest cached state, and simulates only the unseen
// suffix. Because Restore reproduces the dynamic state exactly (see
// Snapshotter), the outcome is bit-for-bit the fresh-build outcome — the
// equivalence tests assert this for both memory models.
//
// Each root has one memory, so evaluations at one resistance serialize
// on the root's lock. Run takes that lock before a pool slot, and the
// slot only to simulate (see Pool): a walk the tree serves completely
// takes no slot, and an evaluation waiting for a busy root leaves the
// slots to evaluations at other resistances.
//
// When the factory's memories do not implement Snapshotter, Run degrades
// to plain fresh-build execution.
type ReplayCache struct {
	factory Factory
	open    defect.Open
	nets    []string

	mu          sync.Mutex
	roots       map[float64]*replayRoot
	unsupported bool // factory memories are not Snapshotters

	simulated atomic.Uint64 // protocol steps actually simulated
	replayed  atomic.Uint64 // protocol steps served from the tree
}

// replayEdge is one protocol step. kind is 's' (setup), 'i' (the
// precharge every operation starts with, alone the idle period of a
// state-fault SOS), 'w' (the rest of a write) or 'r' (the rest of a
// read); u and init are only set on setup edges, cell and data only on
// access edges.
type replayEdge struct {
	kind byte
	cell int
	data int
	u    float64
	init fp.Init
}

// replayNode is the memory state after applying the edge path from the
// root, plus the observations made on arrival.
type replayNode struct {
	snap     any
	f        int // VictimBit at this node
	readVal  int // output of the read edge that created this node
	children map[replayEdge]*replayNode
}

// replayRoot is the per-resistance tree: a live memory, its
// post-power-up base state, and the node the memory currently sits at
// (nil when unknown, forcing a restore before the next simulation). A
// root is created empty and built (mem and base set) by the first Run
// that locks it.
type replayRoot struct {
	mu   sync.Mutex
	mem  Snapshotter
	base *replayNode
	cur  *replayNode
}

// NewReplayCache creates a cache for one open and floating group.
func NewReplayCache(factory Factory, open defect.Open, nets []string) *ReplayCache {
	return &ReplayCache{
		factory: factory,
		open:    open,
		nets:    nets,
		roots:   map[float64]*replayRoot{},
	}
}

// maxReplayPath bounds the protocol steps of one SOS that Run keeps on
// its stack: setup plus a precharge and an access per operation.
const maxReplayPath = 16

// Run evaluates the SOS at (rdef, u) through the prefix tree. It is safe
// for concurrent use; evaluations at different resistances proceed in
// parallel, evaluations at the same resistance serialize on its root.
// Run locks the root first (building its memory on first use, without
// a slot), serves the longest cached prefix, and takes a slot of pool
// (none when pool is nil) only to simulate the rest. A ctx cancelled by
// the time the root is free ends the evaluation with ctx.Err().
func (rc *ReplayCache) Run(ctx context.Context, pool *Pool, rdef float64, u float64, sos fp.SOS) (Outcome, error) {
	root := rc.root(rdef)
	if root == nil {
		// Factory memories cannot snapshot; run plainly.
		return runFresh(ctx, pool, rc.factory, rc.open, rdef, rc.nets, u, sos)
	}
	root.mu.Lock()
	defer root.mu.Unlock()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
	}
	if root.mem == nil {
		if err := rc.build(root, rdef); err != nil {
			return Outcome{}, err
		}
		if root.mem == nil {
			return runFresh(ctx, pool, rc.factory, rc.open, rdef, rc.nets, u, sos)
		}
	}

	var buf [maxReplayPath]replayEdge
	path := append(buf[:0], replayEdge{kind: 's', u: u, init: sos.Init})
	endsWithVictimRead := false
	for i, op := range sos.Ops {
		e := replayEdge{kind: 'w', data: op.Data}
		if op.Kind == fp.OpRead {
			e.kind = 'r'
		}
		if op.Target == fp.TargetBitLine {
			e.cell = 1
		}
		path = append(path, replayEdge{kind: 'i'}, e)
		if e.kind == 'r' && e.cell == 0 {
			endsWithVictimRead = i == len(sos.Ops)-1
		}
	}
	if len(sos.Ops) == 0 {
		path = append(path, replayEdge{kind: 'i'})
	}

	cur, k := root.base, 0
	for ; k < len(path); k++ {
		next, ok := cur.children[path[k]]
		if !ok {
			break
		}
		cur = next
	}
	rc.replayed.Add(uint64(k))
	if k < len(path) {
		var err error
		failed := k
		if perr := pool.DoContext(ctx, func() { cur, failed, err = rc.simulate(root, cur, path, k) }); perr != nil {
			return Outcome{}, perr
		}
		if err != nil {
			if len(sos.Ops) == 0 {
				return Outcome{}, fmt.Errorf("analysis: idle: %w", err)
			}
			i := (failed - 1) / 2 // path[2i+1] and path[2i+2] are op i's precharge and access
			return Outcome{}, fmt.Errorf("analysis: op %d (%s): %w", i, sos.Ops[i], err)
		}
	}
	out := Outcome{F: cur.f}
	if endsWithVictimRead {
		out.R = fp.ReadResultOf(cur.readVal)
	}
	return out, nil
}

// simulate runs path[k:] on the root's memory from node n, adding a
// node per step, and returns the last node. On an error it returns the
// index of the failing step. The root's lock and a pool slot must be
// held.
func (rc *ReplayCache) simulate(root *replayRoot, n *replayNode, path []replayEdge, k int) (*replayNode, int, error) {
	mem := root.mem
	if root.cur != n {
		mem.Restore(n.snap)
		root.cur = n
	}
	for ; k < len(path); k++ {
		e := path[k]
		readVal := 0
		var err error
		switch e.kind {
		case 's':
			switch e.init {
			case fp.Init0:
				mem.ForceVictim(0)
			case fp.Init1:
				mem.ForceVictim(1)
			}
			mem.SetFloat(rc.nets, e.u)
		case 'w':
			err = mem.Write(e.cell, e.data)
		case 'r':
			readVal, err = mem.Read(e.cell)
		case 'i':
			err = mem.Idle()
		}
		if err != nil {
			root.cur = nil // memory state is no longer a tree node
			return nil, k, err
		}
		next := &replayNode{snap: mem.Snapshot(), f: mem.VictimBit(), readVal: readVal}
		if n.children == nil {
			n.children = map[replayEdge]*replayNode{}
		}
		n.children[e] = next
		root.cur = next
		n = next
		rc.simulated.Add(1)
	}
	return n, k, nil
}

// root returns the per-resistance root, creating an empty one on first
// use. A nil root signals that the factory's memories cannot snapshot.
func (rc *ReplayCache) root(rdef float64) *replayRoot {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.unsupported {
		return nil
	}
	r, ok := rc.roots[rdef]
	if !ok {
		r = &replayRoot{}
		rc.roots[rdef] = r
	}
	return r
}

// build makes the root's memory (factory and power-up) and its base
// node, under the root's lock but outside the cache-wide mutex, so
// roots at other resistances build and run meanwhile. A failed build
// leaves the root empty for the next Run to retry. When the memory
// cannot snapshot, build marks the cache unsupported and leaves the
// root empty.
func (rc *ReplayCache) build(r *replayRoot, rdef float64) error {
	mem, err := rc.factory(rc.open, rdef)
	if err != nil {
		return err
	}
	snap, ok := mem.(Snapshotter)
	if !ok {
		rc.mu.Lock()
		rc.unsupported = true
		rc.mu.Unlock()
		if rel, isRel := mem.(Releaser); isRel {
			rel.Release()
		}
		return nil
	}
	r.mem = snap
	r.base = &replayNode{snap: snap.Snapshot(), f: snap.VictimBit()}
	r.cur = r.base
	return nil
}

// Stats reports how many protocol steps were simulated versus replayed
// from the tree.
func (rc *ReplayCache) Stats() (simulated, replayed uint64) {
	return rc.simulated.Load(), rc.replayed.Load()
}

// Close releases the live memories back to their pool (when pooled) and
// drops the trees. The cache must not be used afterwards.
func (rc *ReplayCache) Close() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, r := range rc.roots {
		if rel, ok := r.mem.(Releaser); ok {
			rel.Release()
		}
	}
	rc.roots = nil
}
