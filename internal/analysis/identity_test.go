package analysis_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

func identityOpen(t *testing.T) (defect.Open, defect.FloatGroup) {
	t.Helper()
	for _, open := range defect.SimulatedOpens() {
		if len(open.Floats) > 0 {
			return open, open.Floats[0]
		}
	}
	t.Fatal("no simulated open with a floating group")
	return defect.Open{}, defect.FloatGroup{}
}

func TestPoolDoContext(t *testing.T) {
	pool := analysis.NewPool(1)

	// Nil context degrades to Do.
	ran := false
	if err := pool.DoContext(nil, func() { ran = true }); err != nil || !ran {
		t.Fatalf("nil ctx: ran=%v err=%v", ran, err)
	}

	// Pre-cancelled context: f must not run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran = false
	if err := pool.DoContext(ctx, func() { ran = true }); err == nil || ran {
		t.Fatalf("cancelled ctx: ran=%v err=%v", ran, err)
	}

	// Cancellation while blocked on a full pool must unblock with the
	// context error and leave the slot usable afterwards.
	hold := make(chan struct{})
	holding := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool.Do(func() { close(holding); <-hold })
	}()
	<-holding
	ctx2, cancel2 := context.WithCancel(context.Background())
	blocked := make(chan error, 1)
	var ranCancelled atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		blocked <- pool.DoContext(ctx2, func() { ranCancelled.Store(true) })
	}()
	cancel2()
	if err := <-blocked; err != context.Canceled {
		t.Fatalf("blocked acquire returned %v", err)
	}
	close(hold)
	wg.Wait()
	if ranCancelled.Load() {
		t.Fatal("f ran despite cancellation")
	}
	if err := pool.DoContext(context.Background(), func() {}); err != nil {
		t.Fatalf("pool unusable after cancellation: %v", err)
	}
}

// TestSweepPlaneCancellation: a cancelled context aborts the sweep with
// the context error instead of simulating the remaining points.
func TestSweepPlaneCancellation(t *testing.T) {
	open, group := identityOpen(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := analysis.SweepPlane(analysis.SweepConfig{
		Factory: behav.NewFactory(behav.DefaultParams()),
		Open:    open, Float: group,
		SOS:   fp.NewSOS(fp.Init1, fp.R(1)),
		RDefs: []float64{1e5, 1e6}, Us: []float64{0, 1},
		Ctx: ctx,
	})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
}

// TestBuildInventoryCancellation covers the full pipeline path,
// including the completion search.
func TestBuildInventoryCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := analysis.BuildInventory(analysis.InventoryConfig{
		Factory: behav.NewFactory(behav.DefaultParams()),
		RDefs:   []float64{1e5, 1e6},
		Us:      []float64{0, 1, 2},
		Ctx:     ctx,
	})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled inventory returned %v", err)
	}
}

// TestBuildInventoryInjectedPool: the service-style configuration —
// a shared pool and a context — must produce the same inventory as the
// self-contained pipeline.
func TestBuildInventoryInjectedPool(t *testing.T) {
	params := behav.DefaultParams()
	opens := defect.SimulatedOpens()[:2]
	grid := analysis.InventoryConfig{
		Factory: behav.NewFactory(params),
		Opens:   opens,
		RDefs:   []float64{3e4, 1e5, 1e6, 1e7},
		Us:      []float64{0, 1.0, 2.0, 2.3},
	}
	plain, err := analysis.BuildInventory(grid)
	if err != nil {
		t.Fatal(err)
	}

	injected := grid
	injected.Pool = analysis.NewPool(2)
	injected.Ctx = context.Background()
	got, err := analysis.BuildInventory(injected)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plain) {
		t.Fatalf("injected pipeline found %d rows, plain %d", len(got), len(plain))
	}
	for i := range got {
		a, b := plain[i], got[i]
		if a.SimFFM != b.SimFFM || a.Open.ID != b.Open.ID || a.Possible != b.Possible ||
			a.CompletedString() != b.CompletedString() {
			t.Fatalf("row %d differs: %+v vs %+v", i, a, b)
		}
	}
}
