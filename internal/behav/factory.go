package behav

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
)

// memory adapts Model to analysis.Memory.
type memory struct {
	m *Model
}

func (a *memory) Write(cell, bit int) error  { return a.m.Write(cell, bit) }
func (a *memory) Read(cell int) (int, error) { return a.m.Read(cell) }
func (a *memory) Idle() error                { return a.m.Precharge() }

func (a *memory) ForceVictim(bit int) {
	v := 0.0
	if bit == 1 {
		v = a.m.P.Tech.VDD
	}
	a.m.SetNodeVoltages(v, dram.NetCell0Store)
}

func (a *memory) SetFloat(nets []string, u float64) {
	a.m.SetNodeVoltages(u, nets...)
}

func (a *memory) VictimBit() int { return a.m.CellBit(0) }

// modelState is the dynamic state of a Model within one analysis
// protocol: parameters, capacitances and site resistances are fixed
// after construction and defect injection, so node voltages plus the
// clock fully determine all subsequent behaviour. (The step kernel's
// per-phase constants live on run's stack, not in the Model.)
type modelState struct {
	v    [numNodes]float64
	time float64
}

// Snapshot implements analysis.Snapshotter.
func (a *memory) Snapshot() any {
	return &modelState{v: a.m.v, time: a.m.time}
}

// Restore implements analysis.Snapshotter. It must only be applied to
// the model that produced the snapshot (or one configured identically).
func (a *memory) Restore(state any) {
	s := state.(*modelState)
	a.m.v = s.v
	a.m.time = s.time
}

// NewFactory returns an analysis.Factory backed by the analytical model.
// Model construction is cheap, so no pooling is needed; the memories
// implement analysis.Snapshotter for the replay cache.
func NewFactory(p Params) analysis.Factory {
	return func(open defect.Open, rdef float64) (analysis.Memory, error) {
		m := New(p)
		m.SetSiteResistance(open.Site, rdef)
		for _, x := range open.Extra {
			ohms := x.Ohms
			if ohms == 0 {
				ohms = rdef
			}
			m.SetSiteResistance(x.Site, ohms)
		}
		return &memory{m: m}, nil
	}
}

// Fingerprint identifies the analytical model for store keying: the
// "behav" kind plus every tuning parameter and the full embedded
// technology, so any calibration change invalidates cached results.
// %#v renders Params fields in declaration order, making the encoding
// deterministic.
func Fingerprint(p Params) analysis.Fingerprint {
	return analysis.NewFingerprint("behav", fmt.Sprintf("%#v", p))
}
