package analysis_test

// The completion search tries each probe resistance's last rejecting
// voltage first. The verdict is "every voltage passes", so the order
// cannot move Possible, Completed or Tried; these tests hold production
// SearchCompletion to the sequential oracle (complete_oracle_test.go)
// on every partial finding of the simulated opens, and pin which error
// surfaces when the hinted voltage fails.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/numeric"
)

func TestSearchCompletionMatchesOracle(t *testing.T) {
	t.Run("behav", func(t *testing.T) {
		searches, possible := compareSearches(t, behav.NewFactory(behav.DefaultParams()), defect.SimulatedOpens(),
			numeric.Logspace(1e3, 1e7, 7), numeric.Linspace(0, 3.3, 6))
		if possible == 0 || possible == searches {
			t.Fatalf("%d searches, %d possible: the suite must cover completed and \"Not possible\" findings", searches, possible)
		}
	})
	t.Run("spice", func(t *testing.T) {
		if testing.Short() {
			t.Skip("transient sweeps are slow; run without -short")
		}
		compareSearches(t, analysis.NewPooledSpiceFactory(dram.Default()), []defect.Open{mustOpen(t, 4), mustOpen(t, 7)},
			numeric.Logspace(1e4, 1e7, 3), numeric.Linspace(0, 3.3, 2))
	})
}

// compareSearches sweeps every static SOS of every unit, and for every
// partial finding runs production SearchCompletion (on the unit's
// replay cache, under a two-slot pool) and the oracle (on a replay cache
// of its own, without a pool), requiring the same Completion. It
// returns how many searches ran and how many found a completion.
func compareSearches(t *testing.T, factory analysis.Factory, opens []defect.Open, rdefs, us []float64) (searches, possible int) {
	t.Helper()
	pool := analysis.NewPool(2)
	for _, open := range opens {
		for _, group := range open.Floats {
			replay := analysis.NewReplayCache(factory, open, group.Nets)
			oracleReplay := analysis.NewReplayCache(factory, open, group.Nets)
			for _, sos := range analysis.StaticSOSes() {
				plane, err := analysis.SweepPlane(analysis.SweepConfig{
					Factory: factory, Open: open, Float: group, SOS: sos,
					RDefs: rdefs, Us: us, Replay: replay, Pool: pool,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range analysis.IdentifyPartialFaults(plane) {
					cfg := analysis.CompletionConfig{
						Factory: factory, Open: open, Float: group,
						Base:  f.Example.Base(),
						RDefs: analysis.ProbeRDefs(f.RDefWithPartial), Us: us,
						Replay: replay, Pool: pool,
					}
					got, err := analysis.SearchCompletion(cfg)
					if err != nil {
						t.Fatal(err)
					}
					oracle := cfg
					oracle.Replay, oracle.Pool = oracleReplay, nil
					want, err := analysis.SearchCompletionOracle(oracle)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s %s via %q: search %+v, oracle %+v", open.Name(), group.Var, f.FFM, sos, got, want)
					}
					searches++
					if want.Possible {
						possible++
					}
				}
			}
			replay.Close()
			oracleReplay.Close()
		}
	}
	if searches == 0 {
		t.Fatal("no partial finding to complete")
	}
	t.Logf("%d searches agree with the oracle (%d possible)", searches, possible)
	return searches, possible
}

// scriptedMemory is a fresh-build memory whose outcome is a function of
// the floating voltage and the operations applied: a victim read ends
// the SOS with the base fault <1r1/0/0> when verdict says it passes, and
// fails with errBoom when verdict says so.
type scriptedMemory struct {
	u       float64
	ops     string
	f       int
	verdict func(u float64, ops string) (pass bool, fail bool)
}

var errBoom = errors.New("scripted failure")

func (m *scriptedMemory) Idle() error { return nil }
func (m *scriptedMemory) Write(cell, bit int) error {
	m.ops += fmt.Sprintf("w%d@%d ", bit, cell)
	return nil
}
func (m *scriptedMemory) Read(cell int) (int, error) {
	pass, fail := m.verdict(m.u, m.ops)
	if fail {
		return 0, errBoom
	}
	if pass {
		m.f = 0
		return 0, nil
	}
	m.f = 1
	return 1, nil
}
func (m *scriptedMemory) ForceVictim(bit int)            { m.f = bit }
func (m *scriptedMemory) SetFloat(_ []string, u float64) { m.u = u }
func (m *scriptedMemory) VictimBit() int                 { return m.f }

// TestSearchCompletionHintedVoltageFails: the first candidate, [w0BL],
// passes at 0 and 1 V and is rejected at 2 V, so 2 V becomes the hint
// and runs first for the second candidate, [w1BL]. Where [w1BL] fails at
// 2 V, the search goes on without an error if an earlier voltage rejects
// it, as the in-order search does, and returns the in-order search's
// error if every earlier voltage passes. Where it passes at 2 V but 0 V
// rejects it, it is rejected. In the cases without an error the third
// candidate, [w1], completes the fault.
func TestSearchCompletionHintedVoltageFails(t *testing.T) {
	const (
		firstCand  = "w0@1 "
		secondCand = "w1@1 "
		thirdCand  = "w1@0 "
	)
	for _, tc := range []struct {
		name    string
		second  func(u float64) (pass, fail bool) // [w1BL]'s verdict
		wantErr bool
	}{
		{name: "earlier voltage rejects", second: func(u float64) (bool, bool) { return u == 1, u == 2 }},
		{name: "earlier voltages pass", second: func(u float64) (bool, bool) { return u != 2, u == 2 }, wantErr: true},
		{name: "hinted voltage passes", second: func(u float64) (bool, bool) { return u != 0, false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verdict := func(u float64, ops string) (bool, bool) {
				switch ops {
				case firstCand:
					return u != 2, false
				case secondCand:
					return tc.second(u)
				case thirdCand:
					return true, false
				}
				return false, false
			}
			factory := func(defect.Open, float64) (analysis.Memory, error) {
				return &scriptedMemory{verdict: verdict}, nil
			}
			cfg := analysis.CompletionConfig{
				Factory: factory, Open: mustOpen(t, 4), Float: mustOpen(t, 4).Floats[0],
				Base:  fp.FP{S: fp.NewSOS(fp.Init1, fp.R(1)), F: 0, R: fp.ReadResultOf(0)},
				RDefs: []float64{1e6}, Us: []float64{0, 1, 2},
				Pool: analysis.NewPool(1),
			}
			got, err := analysis.SearchCompletion(cfg)
			want, wantErr := analysis.SearchCompletionOracle(cfg)
			if tc.wantErr {
				if !errors.Is(err, errBoom) || wantErr == nil || err.Error() != wantErr.Error() {
					t.Fatalf("search error %v, oracle error %v", err, wantErr)
				}
				return
			}
			if err != nil || wantErr != nil {
				t.Fatalf("search error %v, oracle error %v", err, wantErr)
			}
			if !reflect.DeepEqual(got, want) || !got.Possible || got.Tried != 3 {
				t.Fatalf("search %+v, oracle %+v; want the third candidate after 3 tries", got, want)
			}
		})
	}
}
