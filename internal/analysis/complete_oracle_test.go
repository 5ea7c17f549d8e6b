package analysis

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/fp"
)

// SearchCompletionOracle is the sequential completion-search oracle: the
// loop SearchCompletion ran before it tried each resistance's last
// rejecting voltage first. It evaluates every candidate at every probe
// voltage in order, one at a time. The completion-order suite compares
// production SearchCompletion against it; it is exported here, in a test
// file, for the external test package.
func SearchCompletionOracle(cfg CompletionConfig) (Completion, error) {
	if len(cfg.RDefs) == 0 || len(cfg.Us) == 0 {
		return Completion{}, fmt.Errorf("analysis: completion search needs probe points")
	}
	base := cfg.Base
	initBit, haveInit := initBitOf(base.S.Init)
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
			ok, err := completedEverywhereOracle(cfg, cand, base)
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

// completedEverywhereOracle tries the voltages of each probe resistance
// in order and stops at the first that fails.
func completedEverywhereOracle(cfg CompletionConfig, cand fp.SOS, base fp.FP) (bool, error) {
	for _, rdef := range cfg.RDefs {
		allUs := true
		for _, u := range cfg.Us {
			out, err := evalSOS(cfg.Ctx, cfg.Pool, cfg.Factory, cfg.Open, rdef, cfg.Float.Nets, u, cand, cfg.Replay)
			if err != nil {
				return false, err
			}
			if out.F != base.F || out.R != base.R {
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

// ProbeRDefs is the inventory's choice of completion probe resistances,
// exposed to the external test package.
func ProbeRDefs(rdefs []float64) []float64 { return probeRDefs(rdefs, maxProbeRDefs) }
