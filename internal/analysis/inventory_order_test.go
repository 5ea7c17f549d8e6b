package analysis_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
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
