package spice

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/device"
)

// randomResistorLadder builds a ladder of n resistors from a source to
// ground and returns the engine plus the source value.
func randomResistorLadder(rng *rand.Rand, vsrc float64) (*Engine, int) {
	ckt := circuit.New()
	src := ckt.Node("src")
	ckt.Add(device.NewVSource("V", src, 0, device.DC(vsrc)))
	n := 2 + rng.Intn(5)
	prev := src
	for i := 0; i < n; i++ {
		next := ckt.Node(nodeName(i))
		ckt.Add(device.NewResistor(resName(i), prev, next, 100+rng.Float64()*10e3))
		prev = next
	}
	ckt.Add(device.NewResistor("Rload", prev, 0, 100+rng.Float64()*10e3))
	ckt.Freeze()
	return MustNewEngine(ckt), n
}

func nodeName(i int) string { return string(rune('a' + i)) }
func resName(i int) string  { return "R" + string(rune('a'+i)) }

// TestLinearScalingProperty: in a purely resistive network, doubling the
// source voltage doubles every node voltage (linearity).
func TestLinearScalingProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := 0.5 + rng.Float64()*5
		e1, n := randomResistorLadder(rand.New(rand.NewSource(seed)), v)
		e2, _ := randomResistorLadder(rand.New(rand.NewSource(seed)), 2*v)
		if e1.OperatingPoint() != nil || e2.OperatingPoint() != nil {
			return false
		}
		for i := 0; i < n; i++ {
			v1 := e1.Voltage(nodeName(i))
			v2 := e2.Voltage(nodeName(i))
			if math.Abs(v2-2*v1) > 1e-6*(1+math.Abs(v1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestVoltageMonotoneAlongLadderProperty: node voltages along a ladder
// from a positive source to ground are non-increasing.
func TestVoltageMonotoneAlongLadderProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, n := randomResistorLadder(rng, 3.3)
		if e.OperatingPoint() != nil {
			return false
		}
		prev := 3.3
		for i := 0; i < n; i++ {
			v := e.Voltage(nodeName(i))
			if v > prev+1e-9 || v < -1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestChargeConservationProperty: two capacitors connected by a resistor
// conserve total charge while equalizing.
func TestChargeConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c1 := 10e-15 + rng.Float64()*200e-15
		c2 := 10e-15 + rng.Float64()*200e-15
		v1 := rng.Float64() * 3.3
		v2 := rng.Float64() * 3.3
		ckt := circuit.New()
		a := ckt.Node("a")
		b := ckt.Node("b")
		ckt.Add(device.NewCapacitor("C1", a, 0, c1))
		ckt.Add(device.NewCapacitor("C2", b, 0, c2))
		ckt.Add(device.NewResistor("R", a, b, 1e3+rng.Float64()*1e5))
		ckt.Freeze()
		e := MustNewEngine(ckt)
		e.SetNodeVoltage("a", v1)
		e.SetNodeVoltage("b", v2)
		q0 := c1*v1 + c2*v2
		if err := e.Run(50e-9, 200, nil); err != nil {
			return false
		}
		q1 := c1*e.Voltage("a") + c2*e.Voltage("b")
		return math.Abs(q1-q0) < 1e-3*q0+1e-20
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
