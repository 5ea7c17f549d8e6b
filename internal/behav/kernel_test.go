package behav_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/stress"
)

// cornerParams returns the analytical parameters of every built-in
// stress corner; the nominal corner's are DefaultParams.
func cornerParams(tb testing.TB) []behav.Params {
	tb.Helper()
	var out []behav.Params
	for _, c := range stress.DefaultCorners() {
		p, err := c.DeriveParams(behav.DefaultParams())
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestKernelMatchesOracle holds run's straight-line kernel to the
// term-by-term accumulation it replaced, bit for bit, at every stress
// corner: single run calls from random states over every phase the
// operations issue plus random flag combinations at every defect site,
// then random operation sequences with forced nets.
func TestKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	for _, p := range cornerParams(t) {
		for site := range behav.NumSites {
			behav.CheckKernelPhases(t, p, site, rng)
		}
		for range 64 {
			site := rng.IntN(behav.NumSites)
			r := math.Pow(10, 1+8*rng.Float64())
			forced := uint32(1)<<rng.IntN(behav.NumNodes) | uint32(1)<<rng.IntN(behav.NumNodes)
			u := 4.6 * rng.Float64()
			ops := []byte("f")
			for range 6 {
				if rng.IntN(2) == 1 {
					ops = append(ops, 'c')
				}
				ops = append(ops, "01ri"[rng.IntN(4)])
			}
			behav.CheckKernelOps(t, p, site, r, forced, u, string(ops))
		}
	}
}

// FuzzKernelMatchesOracle drives the kernel and the oracle through one
// operation string (see checkOps in oracle_test.go) at a defect site,
// log-resistance, forced-net mask, forcing voltage and stress corner,
// asserting bitwise equality after every operation.
func FuzzKernelMatchesOracle(f *testing.F) {
	group := func(id int, v defect.FloatVar) uint32 {
		o, _ := defect.ByID(id)
		g, ok := o.Float(v)
		if !ok {
			f.Fatalf("open %d has no %s group", id, v)
		}
		return behav.NetMask(g.Nets...)
	}
	site := func(name string) uint8 { return uint8(behav.SiteIndex(name)) }
	// The paper's probe points: Open 4 1r1 at 10 MΩ with the bit line at
	// 0 V, Open 1 0r0 with the cell floating at 1.6 V, and Open 9's
	// word line floating at 4.0 V.
	f.Add(site(dram.SiteOpen4BLPre), 7.0, group(4, defect.FloatBitLine), 0.0, uint8(0), "Hfr")
	f.Add(site(dram.SiteOpen1Cell), 5.0, group(1, defect.FloatMemoryCell), 1.6, uint8(0), "Lfr")
	f.Add(site(dram.SiteOpen9WL), 8.0, group(9, defect.FloatWordLine), 4.0, uint8(0), "Lfi")
	f.Add(site(dram.SiteOpen4BLPre), 6.0, group(4, defect.FloatBitLine), 2.5, uint8(4), "Hf0c1r")
	corners := cornerParams(f)
	f.Fuzz(func(t *testing.T, site uint8, logR float64, forced uint32, u float64, corner uint8, ops string) {
		logR = 1 + math.Mod(math.Abs(logR), 8)
		u = math.Mod(math.Abs(u), 4.6)
		if math.IsNaN(logR) || math.IsNaN(u) {
			t.Skip("non-finite input")
		}
		if len(ops) > 12 {
			ops = ops[:12]
		}
		behav.CheckKernelOps(t, corners[int(corner)%len(corners)], int(site)%behav.NumSites,
			math.Pow(10, logR), forced, u, ops)
	})
}

// TestOpsDoNotAllocate guards the kernel's constant block staying on
// run's stack: a block built per phase on the heap would cost eight
// allocations per operation, in every sweep.
func TestOpsDoNotAllocate(t *testing.T) {
	o, _ := defect.ByID(4)
	mem, err := behav.NewFactory(behav.DefaultParams())(o, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"Write", func() error { return mem.Write(0, 1) }},
		{"Read", func() error { _, err := mem.Read(0); return err }},
		{"Idle", mem.Idle},
	} {
		if n := testing.AllocsPerRun(20, func() {
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per op, want 0", tc.name, n)
		}
	}
}
