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
// cache instead keeps, per probe resistance, live Snapshotter memories
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
// suffix. Because Restore reproduces the dynamic state exactly on any
// identically configured memory (see Snapshotter), the outcome is
// bit-for-bit the fresh-build outcome — the equivalence tests assert
// this for both memory models.
//
// Each resistance's tree splits at its setup edge into subtrees that
// share no edge, and each subtree has its own lock. Run locks the
// subtree of its evaluation's setup edge, serves the longest cached
// prefix, and takes a pool slot only to simulate the rest (see Pool), on
// a memory of the resistance leased for that simulation: an idle one,
// preferring one that already sits at the node the simulation starts
// from (otherwise it restores that node), else a new one from the
// factory. So evaluations at one resistance with different setup edges
// simulate at once, and every edge is still simulated once, under its
// subtree's lock. A memory is leased only under a slot, so a resistance
// never holds more memories than the pool has slots; at one slot it
// holds exactly one. Its first memory, whose power-up state is the
// tree's base node, is built without a slot by the first Run at the
// resistance, while later Runs there wait for it. A memory whose
// operation fails goes back to its resistance at no node, so the next
// simulation on it restores first.
//
// The factory's memories must implement Snapshotter: Run fails at the
// first one that does not, naming its type.
type ReplayCache struct {
	factory Factory
	open    defect.Open
	nets    []string

	mu    sync.Mutex
	roots map[float64]*replayRoot

	simulated atomic.Uint64 // protocol steps actually simulated
	replayed  atomic.Uint64 // protocol steps served from the tree
	memories  atomic.Uint64 // memories built
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

// replayRoot is the per-resistance tree: the post-power-up base node, a
// subtree per setup edge, and the resistance's memories. A root is
// created empty and built (base set, first memory idle) by the first
// Run that locks mu; mu is held while building and to look up a
// subtree. idle lists the memories not leased; leaseMu guards it and is
// held only to take or return a memory.
type replayRoot struct {
	mu       sync.Mutex
	base     *replayNode
	subtrees map[replayEdge]*replaySubtree

	leaseMu sync.Mutex
	idle    []*replayMemory
}

// replaySubtree is the part of a resistance's tree under one setup edge:
// its lock, held for a whole evaluation, guards setup, the node after
// the setup edge (nil until simulated), and every node below it.
type replaySubtree struct {
	mu    sync.Mutex
	setup *replayNode
}

// replayMemory is a live memory of a resistance and the node it sits at
// (nil when unknown, forcing a restore before its next simulation).
type replayMemory struct {
	mem Snapshotter
	at  *replayNode
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
// for concurrent use; evaluations with different setup edges proceed in
// parallel, evaluations in one subtree serialize on its lock. Run builds
// the resistance's first memory on first use (without a slot), locks
// the subtree, serves the longest cached prefix, and takes a slot of
// pool (none when pool is nil) only to simulate the rest on a leased
// memory. A ctx cancelled by the time the subtree is free ends the
// evaluation with ctx.Err().
func (rc *ReplayCache) Run(ctx context.Context, pool *Pool, rdef float64, u float64, sos fp.SOS) (Outcome, error) {
	root := rc.root(rdef)
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

	sub, err := rc.subtree(ctx, root, rdef, path[0])
	if err != nil {
		return Outcome{}, err
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return Outcome{}, err
	}
	cur, k := root.base, 0
	if sub.setup != nil {
		for cur, k = sub.setup, 1; k < len(path); k++ {
			next, ok := cur.children[path[k]]
			if !ok {
				break
			}
			cur = next
		}
	}
	rc.replayed.Add(uint64(k))
	if k < len(path) {
		var m *replayMemory
		failed := k
		if perr := pool.DoContext(ctx, func() {
			if m, err = rc.lease(root, rdef, cur); err == nil {
				cur, failed, err = rc.simulate(sub, m, cur, path, k)
				root.giveBack(m)
			}
		}); perr != nil {
			return Outcome{}, perr
		}
		if err != nil {
			if m == nil { // the factory failed to build a memory to lease
				return Outcome{}, err
			}
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

// simulate runs path[k:] on the leased memory m from node n, adding a
// node per step, and returns the last node. On an error it returns the
// index of the failing step and leaves m at no node. The subtree's lock
// and a pool slot must be held.
func (rc *ReplayCache) simulate(sub *replaySubtree, m *replayMemory, n *replayNode, path []replayEdge, k int) (*replayNode, int, error) {
	mem := m.mem
	if m.at != n {
		mem.Restore(n.snap)
		m.at = n
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
			m.at = nil // memory state is no longer a tree node
			return nil, k, err
		}
		next := &replayNode{snap: mem.Snapshot(), f: mem.VictimBit(), readVal: readVal}
		if k == 0 {
			sub.setup = next
		} else {
			if n.children == nil {
				n.children = map[replayEdge]*replayNode{}
			}
			n.children[e] = next
		}
		m.at = next
		n = next
		rc.simulated.Add(1)
	}
	return n, k, nil
}

// root returns the per-resistance root, creating an empty one on first
// use.
func (rc *ReplayCache) root(rdef float64) *replayRoot {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	r, ok := rc.roots[rdef]
	if !ok {
		r = &replayRoot{}
		rc.roots[rdef] = r
	}
	return r
}

// subtree returns the root's subtree under the setup edge, creating it
// on first use. The first call at a resistance builds its first memory
// and base node under r.mu, outside the cache-wide mutex and without a
// slot, so resistances build and run meanwhile; a failed build leaves
// the root empty for the next Run to retry.
func (rc *ReplayCache) subtree(ctx context.Context, r *replayRoot, rdef float64, setup replayEdge) (*replaySubtree, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if r.base == nil {
		m, err := rc.newMemory(rdef)
		if err != nil {
			return nil, err
		}
		r.base = &replayNode{snap: m.mem.Snapshot(), f: m.mem.VictimBit()}
		m.at = r.base
		r.subtrees = map[replayEdge]*replaySubtree{}
		r.giveBack(m)
	}
	sub := r.subtrees[setup]
	if sub == nil {
		sub = &replaySubtree{}
		r.subtrees[setup] = sub
	}
	return sub, nil
}

// lease takes an idle memory of the root, preferring one that sits at
// n, or builds one at the base node when none is idle. The caller holds
// a pool slot, which bounds the root's memories by the slots.
func (rc *ReplayCache) lease(r *replayRoot, rdef float64, n *replayNode) (*replayMemory, error) {
	r.leaseMu.Lock()
	if last := len(r.idle) - 1; last >= 0 {
		i := last
		for j, m := range r.idle {
			if m.at == n {
				i = j
				break
			}
		}
		m := r.idle[i]
		r.idle[i] = r.idle[last]
		r.idle = r.idle[:last]
		r.leaseMu.Unlock()
		return m, nil
	}
	r.leaseMu.Unlock()
	m, err := rc.newMemory(rdef)
	if err != nil {
		return nil, err
	}
	m.at = r.base
	return m, nil
}

// giveBack returns a leased memory to the root's idle list.
func (r *replayRoot) giveBack(m *replayMemory) {
	r.leaseMu.Lock()
	r.idle = append(r.idle, m)
	r.leaseMu.Unlock()
}

// newMemory builds a memory at rdef (factory and power-up). A memory
// that cannot snapshot is released, and newMemory fails naming its type.
func (rc *ReplayCache) newMemory(rdef float64) (*replayMemory, error) {
	mem, err := rc.factory(rc.open, rdef)
	if err != nil {
		return nil, err
	}
	snap, ok := mem.(Snapshotter)
	if !ok {
		if rel, isRel := mem.(Releaser); isRel {
			rel.Release()
		}
		return nil, fmt.Errorf("analysis: replay memory %T does not implement Snapshotter", mem)
	}
	rc.memories.Add(1)
	return &replayMemory{mem: snap}, nil
}

// ctxErr is ctx.Err(), or nil for a nil ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Stats reports how many protocol steps were simulated versus replayed
// from the tree.
func (rc *ReplayCache) Stats() (simulated, replayed uint64) {
	return rc.simulated.Load(), rc.replayed.Load()
}

// MemoriesBuilt reports how many memories the cache built: at most the
// pool's slots per resistance, one per resistance at one slot.
func (rc *ReplayCache) MemoriesBuilt() uint64 {
	return rc.memories.Load()
}

// Close releases the live memories back to their pool (when pooled) and
// drops the trees. The cache must not be used afterwards.
func (rc *ReplayCache) Close() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, r := range rc.roots {
		for _, m := range r.idle {
			if rel, ok := m.mem.(Releaser); ok {
				rel.Release()
			}
		}
	}
	rc.roots = nil
}
