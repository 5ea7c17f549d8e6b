package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// probeRefMS scales op_ms: a batch repetition's time is reported as if
// the probe run just before it had taken this long.
const probeRefMS = 30.0

// probeExp is the power of the probe's slow-down that a repetition's
// time is divided by. When the host slows, the workloads slow more than
// the probe does: on a log scale, about one and a half times as far.
// Over sets of eight and ten runs of each batch workload, the quartile
// spread of op_ms was 0.04 to 0.13 with the power 1 and 0.04 to 0.08
// with 1.5; 2 was no steadier, and higher powers overcorrected.
const probeExp = 1.5

// probeWorkload names the probe in a childSpec.
const probeWorkload = "probe"

// runProbe starts a probe child, which times a fixed piece of work, and
// returns that time in ms.
//
// On a shared host the speed of both CPUs changes within seconds, by up
// to two fifths for code like the library's that allocates and leans on
// caches and branches, while a tight integer loop barely changes. The
// probe does the same kinds of work: hash-map inserts and lookups, a
// sort, floating-point division and small allocations, on parallelism
// goroutines in a fresh process. It slows with the host as the workloads
// do, if less, so scaling a repetition's time by a power of the probe's
// cancels most of the host's drift. The probe is part of the benchmark,
// not of the library, so a change to the library moves the workloads but
// not it.
func runProbe(ctx context.Context, exe string) (float64, error) {
	res, _, err := spawn(ctx, exe, childSpec{Workload: probeWorkload})
	if err != nil {
		return 0, err
	}
	return res.WallS * 1000, nil
}

// probeChild is the probe child: it times the probe once.
func probeChild(ready func(string)) repResult {
	ready("")
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < parallelism; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			probeSink[g] = probeWork(uint64(g) + 1)
		}(g)
	}
	wg.Wait()
	return repResult{WallS: time.Since(start).Seconds()}
}

// probeSink keeps the compiler from removing the probe's work.
var probeSink [parallelism]float64

func probeWork(seed uint64) float64 {
	type node struct {
		next *node
		v    [4]float64
	}
	s := 0.0
	for round := 0; round < 3; round++ {
		m := map[int]int{}
		for i := 0; i < 20_000; i++ {
			m[i*7919] = i
		}
		for i := 0; i < 40_000; i++ {
			s += float64(m[i*3967])
		}
		xs := make([]float64, 30_000)
		x := seed
		for i := range xs {
			x = x*6364136223846793005 + 1442695040888963407
			xs[i] = float64(x >> 11)
		}
		sort.Float64s(xs)
		for i := 1; i < 300_000; i++ {
			f := float64(i)
			s += math.Sqrt(f) / (f + 1.5)
		}
		var head *node
		for i := 0; i < 30_000; i++ {
			head = &node{next: head}
		}
		s += xs[0] + head.v[0]
	}
	return s
}
