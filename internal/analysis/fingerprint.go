package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/dram"
)

// Fingerprint identifies a simulation model up to everything that can
// change its outcomes: the model kind (electrical "spice" versus
// analytical "behav"), the netlist topology, and every technology or
// tuning parameter. Two Factories with equal fingerprints produce
// identical Outcomes for identical inputs, so a cached result keyed on
// the fingerprint (the service's result store, the stress matrix's
// per-corner identity) can never be served across models.
//
// The rendered form is "kind:digest" so diagnostics show the
// electrical-vs-analytical distinction at a glance.
type Fingerprint string

// Kind returns the model-kind prefix of the fingerprint ("spice",
// "behav", ...), or the whole fingerprint if it has no prefix.
func (f Fingerprint) Kind() string {
	for i := 0; i < len(f); i++ {
		if f[i] == ':' {
			return string(f[:i])
		}
	}
	return string(f)
}

// NewFingerprint digests the parts (length-prefixed, so part boundaries
// cannot alias) under the model kind.
func NewFingerprint(kind string, parts ...string) Fingerprint {
	h := sha256.New()
	hashPart(h, kind)
	for _, p := range parts {
		hashPart(h, p)
	}
	return Fingerprint(kind + ":" + hex.EncodeToString(h.Sum(nil))[:16])
}

func hashPart(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// NetlistFingerprint canonically encodes a circuit's topology: node
// names in index order and element designators with their dynamic
// types, in insertion order. Element parameter values are not visible
// through the Element interface; they are covered by the technology
// encoding that accompanies this digest in SpiceFingerprint.
func NetlistFingerprint(c *circuit.Circuit) string {
	h := sha256.New()
	for _, n := range c.NodeNames() {
		hashPart(h, n)
	}
	for _, e := range c.Elements() {
		hashPart(h, e.Name())
		hashPart(h, fmt.Sprintf("%T", e))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TechnologyFingerprint encodes every Technology field. %#v renders the
// fields in declaration order, so any parameter change — supply rail,
// capacitance, timing, SA imbalance — changes the digest.
func TechnologyFingerprint(t dram.Technology) string {
	return fmt.Sprintf("%#v", t)
}

// SpiceFingerprint fingerprints the electrical model for a technology:
// the as-built column netlist plus the full technology encoding. It
// identifies NewSpiceFactory and NewPooledSpiceFactory over the same
// technology.
func SpiceFingerprint(tech dram.Technology) (Fingerprint, error) {
	col, err := dram.NewColumn(tech)
	if err != nil {
		return "", fmt.Errorf("analysis: fingerprint netlist: %w", err)
	}
	return NewFingerprint("spice", NetlistFingerprint(col.Circuit()), TechnologyFingerprint(tech)), nil
}
