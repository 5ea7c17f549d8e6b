package analysis_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
)

// failingMemory shows a partial state fault <0/1/-> above 2 V, fails
// every bit-line write (so every completion search fails on its first
// candidate, after a delay) and every victim read (so the 0r0 sweep,
// the seventh, fails at once).
type failingMemory struct {
	u float64
	f int
}

var (
	errBitLineWrite = errors.New("bit-line write fails")
	errVictimRead   = errors.New("victim read fails")
)

func (m *failingMemory) Idle() error {
	if m.u >= 2 {
		m.f = 1
	}
	return nil
}

func (m *failingMemory) Write(cell, bit int) error {
	if cell == 1 {
		time.Sleep(50 * time.Millisecond)
		return errBitLineWrite
	}
	m.f = bit
	return nil
}

func (m *failingMemory) Read(int) (int, error)          { return 0, errVictimRead }
func (m *failingMemory) ForceVictim(bit int)            { m.f = bit }
func (m *failingMemory) SetFloat(_ []string, u float64) { m.u = u }
func (m *failingMemory) VictimBit() int                 { return m.f }
func (m *failingMemory) Snapshot() any                  { return *m }
func (m *failingMemory) Restore(state any)              { *m = state.(failingMemory) }

// TestBuildInventoryErrorOrder: the SF0 search starts after the first
// sweep and fails late, while the 0r0 sweep fails early. The sequential
// pipeline would have stopped at the search, so its error is the one
// returned, although the sweep's came first in wall-clock time.
func TestBuildInventoryErrorOrder(t *testing.T) {
	open := mustOpen(t, 4)
	open.Floats = open.Floats[:1]
	_, err := analysis.BuildInventory(analysis.InventoryConfig{
		Factory: func(defect.Open, float64) (analysis.Memory, error) { return &failingMemory{}, nil },
		Opens:   []defect.Open{open},
		RDefs:   []float64{1e5, 1e6},
		Us:      []float64{0, 1, 2, 3},
		Pool:    analysis.NewPool(2),
	})
	if !errors.Is(err, errBitLineWrite) || !strings.HasPrefix(err.Error(), "analysis: completing SF0 for ") {
		t.Fatalf("want the SF0 search's error, got %v", err)
	}
}

// plainMemory hides a memory's Snapshotter methods and counts releases.
type plainMemory struct {
	analysis.Memory
	released *atomic.Int32
}

func (m plainMemory) Release() { m.released.Add(1) }

// TestBuildInventoryNeedsSnapshotter: the inventory evaluates every SOS
// through a replay cache, so a factory whose memories cannot snapshot
// makes BuildInventory fail with an error naming the memory's type, and
// every memory the factory built is released.
func TestBuildInventoryNeedsSnapshotter(t *testing.T) {
	open := mustOpen(t, 4)
	open.Floats = open.Floats[:1]
	inner := behav.NewFactory(behav.DefaultParams())
	var built, released atomic.Int32
	_, err := analysis.BuildInventory(analysis.InventoryConfig{
		Factory: func(o defect.Open, rdef float64) (analysis.Memory, error) {
			m, err := inner(o, rdef)
			if err != nil {
				return nil, err
			}
			built.Add(1)
			return plainMemory{Memory: m, released: &released}, nil
		},
		Opens: []defect.Open{open},
		RDefs: []float64{1e5, 1e6},
		Us:    []float64{0, 3.3},
		Pool:  analysis.NewPool(2),
	})
	if err == nil || !strings.Contains(err.Error(), "analysis_test.plainMemory") {
		t.Fatalf("want an error naming analysis_test.plainMemory, got %v", err)
	}
	if b, r := built.Load(), released.Load(); b == 0 || r != b {
		t.Fatalf("factory built %d memories, %d released", b, r)
	}
}
