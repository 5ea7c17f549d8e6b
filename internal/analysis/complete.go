package analysis

import (
	"context"
	"fmt"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

// CompletionConfig parameterizes the completing-operation search for one
// partial fault.
type CompletionConfig struct {
	// Factory builds the device under analysis.
	Factory Factory
	// Open and Float identify the defect and the swept floating group.
	Open  defect.Open
	Float defect.FloatGroup
	// Base is the partial FP to complete (e.g. <1r1/0/0>).
	Base fp.FP
	// RDefs are probe resistances at which the partial fault was seen.
	// A completion is accepted when it sensitizes the fault for every U
	// at at least one of them: the paper's own completions hold only in
	// an R_def window (Figure 4(b): "can now be sensitized with
	// R_def = 150 kΩ for any initial cell voltage").
	RDefs []float64
	// Us are probe voltages spanning the floating range; the completed
	// FP must be sensitized at every one of them.
	Us []float64

	// Ctx, when non-nil, cancels the search between probe simulations.
	Ctx context.Context

	// Replay, when non-nil, shares simulation prefixes between the
	// candidate sequences and with the sweep that found the partial
	// fault — the search's candidates differ only in their tails, so
	// nearly all re-simulation collapses into tree walks. Must have been
	// built for this search's Factory, Open and Float.Nets.
	Replay *ReplayCache
	// Pool, when non-nil, gates each probe simulation on the shared
	// pipeline pool so completion searches running alongside sweeps keep
	// total concurrency bounded. A probe takes a slot only while it
	// simulates.
	Pool *Pool
}

// Completion is the search result.
type Completion struct {
	// Possible is false when no completing sequence exists within the
	// search bounds — Table 1's "Not possible" entries.
	Possible bool
	// Completed is the completed fault primitive when Possible.
	Completed fp.FP
	// Tried counts candidate prefixes that were simulated.
	Tried int
}

// maxCompletionOps bounds the completing-prefix length.
const maxCompletionOps = 3

// completingAlphabet is the candidate completing operations: writes to a
// bit-line neighbour or to the victim itself. The paper's completions use
// exactly these (reads are never needed: every read embeds a precharge,
// and its line-driving effect is subsumed by writes).
func completingAlphabet() []fp.Op {
	return []fp.Op{fp.CWBL(0), fp.CWBL(1), fp.CW(0), fp.CW(1)}
}

// SearchCompletion enumerates completing prefixes in order of increasing
// length and returns the first one that sensitizes the base fault for
// every probe (R_def, U) point. A prefix containing victim writes is only
// admissible if its last victim write re-establishes the base FP's
// initial state; the explicit initialization is then dropped, as the
// paper does for <[w1 w1 w0] r0/1/1>.
func SearchCompletion(cfg CompletionConfig) (Completion, error) {
	if len(cfg.RDefs) == 0 || len(cfg.Us) == 0 {
		return Completion{}, fmt.Errorf("analysis: completion search needs probe points")
	}
	base := cfg.Base
	initBit, haveInit := initBitOf(base.S.Init)
	// hints[r] indexes the voltage that last rejected a candidate at
	// cfg.RDefs[r].
	hints := make([]int, len(cfg.RDefs))
	result := Completion{}
	for n := 1; n <= maxCompletionOps; n++ {
		for _, prefix := range prefixesOfLength(n) {
			lastVictim, hasVictim := lastVictimWrite(prefix)
			if hasVictim && haveInit && lastVictim != initBit {
				continue // would change the expected pre-state
			}
			cand := fp.SOS{Init: base.S.Init, Ops: append(append([]fp.Op(nil), prefix...), base.S.SensitizingOps()...)}
			if hasVictim {
				cand.Init = fp.InitNone
			}
			ok, err := completedEverywhere(cfg, cand, base, hints)
			result.Tried++
			if err != nil {
				return Completion{}, err
			}
			if ok {
				result.Possible = true
				result.Completed = fp.FP{S: cand, F: base.F, R: base.R}
				return result, nil
			}
		}
	}
	return result, nil
}

// completedEverywhere checks the paper's completion criterion: at one of
// the probe resistances (all of which showed the bare fault only for
// part of the U axis), the candidate SOS must reproduce the base fault's
// exact (F, R) at *every* floating voltage. Exactness matters: at
// mixed-class rows where the F component degrades (RDF0 → IRF0 at
// extreme resistance) a lax "any deviation" rule would accept trivial
// prefixes that don't complete anything.
//
// The verdict at a resistance is "every voltage passes", so the order
// in which the voltages run cannot change it. One voltage usually
// rejects a candidate, so each resistance first tries the voltage that
// last rejected one there (hints[r]), then the rest in order. An error
// at that hinted voltage is returned only if every voltage before it in
// order passes; otherwise the candidate is rejected where the in-order
// search rejects it.
func completedEverywhere(cfg CompletionConfig, cand fp.SOS, base fp.FP, hints []int) (bool, error) {
	passes := func(rdef, u float64) (bool, error) {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return false, err
			}
		}
		out, err := evalSOS(cfg.Ctx, cfg.Pool, cfg.Factory, cfg.Open, rdef, cfg.Float.Nets, u, cand, cfg.Replay)
		if err != nil {
			return false, err
		}
		return out.F == base.F && out.R == base.R, nil
	}
	for r, rdef := range cfg.RDefs {
		h := hints[r]
		ok, hintErr := passes(rdef, cfg.Us[h])
		if hintErr == nil && !ok {
			continue
		}
		allUs := true
		for j, u := range cfg.Us {
			if j == h {
				if hintErr != nil {
					return false, hintErr
				}
				continue
			}
			ok, err := passes(rdef, u)
			if err != nil {
				return false, err
			}
			if !ok {
				hints[r] = j
				allUs = false
				break
			}
		}
		if allUs {
			return true, nil
		}
	}
	return false, nil
}

// prefixesOfLength enumerates all completing prefixes of length n over
// the alphabet, in deterministic order.
func prefixesOfLength(n int) [][]fp.Op {
	alpha := completingAlphabet()
	if n == 1 {
		out := make([][]fp.Op, 0, len(alpha))
		for _, o := range alpha {
			out = append(out, []fp.Op{o})
		}
		return out
	}
	var out [][]fp.Op
	for _, shorter := range prefixesOfLength(n - 1) {
		for _, o := range alpha {
			seq := make([]fp.Op, 0, n)
			seq = append(seq, shorter...)
			seq = append(seq, o)
			out = append(out, seq)
		}
	}
	return out
}

// lastVictimWrite returns the data of the last victim-targeted write in
// the prefix and whether one exists.
func lastVictimWrite(ops []fp.Op) (int, bool) {
	data, found := 0, false
	for _, o := range ops {
		if o.Target == fp.TargetVictim && o.Kind == fp.OpWrite {
			data, found = o.Data, true
		}
	}
	return data, found
}

func initBitOf(i fp.Init) (int, bool) {
	switch i {
	case fp.Init0:
		return 0, true
	case fp.Init1:
		return 1, true
	}
	return 0, false
}
