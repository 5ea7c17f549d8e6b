package request

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/analysis/store"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/stress"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

type keyed interface {
	Normalize(*Env) error
	Key(*Env) store.Key
}

func newKind(t *testing.T, kind string) keyed {
	t.Helper()
	switch kind {
	case "inventory":
		return &Inventory{}
	case "coverage":
		return &Coverage{}
	case "twocell":
		return &TwoCell{}
	case "matrix":
		return &Matrix{}
	case "predict":
		return &Predict{}
	case "stress":
		return &Stress{}
	}
	t.Fatalf("unknown kind %q", kind)
	return nil
}

// decodeStrict decodes a service request body into q the way the
// service does: unknown fields are errors.
func decodeStrict(body string, q any) error {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(q)
}

// bodyKey decodes a service request body the way the service does and
// returns its normalized store key.
func bodyKey(t *testing.T, env *Env, kind, body string) store.Key {
	t.Helper()
	q := newKind(t, kind)
	if err := decodeStrict(body, q); err != nil {
		t.Fatalf("%s %s: %v", kind, body, err)
	}
	if err := q.Normalize(env); err != nil {
		t.Fatalf("%s %s: %v", kind, body, err)
	}
	return q.Key(env)
}

// pinnedBodies are the request bodies the benchmark and the default
// spellings send, with their store-key digests. The digests of march
// bodies that name no engine are those their explicit "bitsim"
// spellings had before every march request ran on the bit-plane
// engine; every other digest was computed by the service before the
// request layer existed.
var pinnedBodies = []struct{ kind, body, digest string }{
	// The eleven hot-set bodies of the serve-mixed benchmark.
	{"inventory", `{"opens":[4],"rdefs":[1000,10000,100000,1000000,10000000],"us":[0,1.0999999999999999,2.1999999999999997,3.3]}`, "ee9c2709e6315d2a6a8a9ec2b50d217b06fd55762ed9da6e31453b8aefd31bd6"},
	{"inventory", `{"opens":[5],"rdefs":[10000,100000,1000000],"us":[0,1.65,3.3]}`, "c03617af2a15bae7093fdfb1ee7e2ab874818d38bf425b276e256b94dbe57f15"},
	{"coverage", `{"cols":128,"engine":"bitsim","rows":128}`, "7814a07d014d59fd4826f5c060e4e0dc4272d71b8d7e3be23c49b9e65e7fb870"},
	{"coverage", `{"catalog":"paper","cols":64,"engine":"bitsim","rows":64}`, "f53876818150e0ffdb56053ea5b46d814e8d1bdfc7c36f8858b8e989e382ee34"},
	{"coverage", `{"catalog":"paper","tests":["March PF"]}`, "8f02ee57f3b6494612ff10489cad7db531c12a9a128600b6fecb99f4856f1f43"},
	{"twocell", `{"cols":64,"engine":"bitsim","offsets":[1,-1,64,-64],"rows":64,"test":"March SS"}`, "9c8c245ba81265a0ff548f55f28dd2b5b535fa4f38b684b2282dd235789102db"},
	{"twocell", `{"test":"March PF"}`, "456fc93e4e3bb90281ea4e0b48e8662b4aa6d553826caa7e3d4e894cd37f557b"},
	{"matrix", `{"tests":["March PF"]}`, "5ae198380d0cdd081202e24b3dc58e537cb1b633eb73da17a0b4f1c73daaeca5"},
	{"predict", `{"open":4}`, "190070ccf30d0a64501065a2f4cb794846fdc6b8b7e22436f97d48fd0d8da3a4"},
	{"predict", `{"defects":[{"ohms":2000000,"site":"bridge.bl.bl"}]}`, "9195049f3c263ebb18993ae29e76a35bcc09f8ee090e29e3182a01c1d7a842e8"},
	{"stress", `{"corners":"nominal;hot","opens":[4],"rdefs":[10000,100000,1000000],"tests":["March PF"],"us":[0,1.65,3.3]}`, "b0268c47700a23543ff39f7b09c7c177952b3c02818cf366049562f415bcf076"},
	// The bit-plane bodies at the benchmark's small size.
	{"coverage", `{"cols":32,"engine":"bitsim","rows":32}`, "11d9edbbd0f6216f0f2745af01b1a27b91ea4290b024d6eaf959db4fbd8b0e6e"},
	{"coverage", `{"catalog":"paper","cols":16,"engine":"bitsim","rows":16}`, "6901a2929bfde8c4f13dfc170d10d002a1d6dff7ee06d56d4b0eca474f33562e"},
	{"twocell", `{"cols":16,"engine":"bitsim","offsets":[1,-1,16,-16],"rows":16,"test":"March SS"}`, "17a46e0f7e0faaf22a8b5d24b1315caf69a4431f1a3ab6c27157a463b38f7174"},
	// Min/max/steps spellings of the hot grids.
	{"inventory", `{"opens":[4],"rdef_min":1e3,"rdef_max":1e7,"rdef_steps":5,"u_max":3.3,"u_steps":4}`, "ee9c2709e6315d2a6a8a9ec2b50d217b06fd55762ed9da6e31453b8aefd31bd6"},
	{"inventory", `{"opens":[5],"rdef_min":1e4,"rdef_max":1e6,"rdef_steps":3,"u_max":3.3,"u_steps":3}`, "c03617af2a15bae7093fdfb1ee7e2ab874818d38bf425b276e256b94dbe57f15"},
	{"stress", `{"opens":[4],"rdef_min":1e4,"rdef_max":1e6,"rdef_steps":3,"u_max":3.3,"u_steps":3,"corners":"nominal;hot","tests":["March PF"]}`, "b0268c47700a23543ff39f7b09c7c177952b3c02818cf366049562f415bcf076"},
	// The march bodies above with the engine spelled out.
	{"coverage", `{"catalog":"paper","tests":["March PF"],"engine":"bitsim"}`, "8f02ee57f3b6494612ff10489cad7db531c12a9a128600b6fecb99f4856f1f43"},
	{"twocell", `{"test":"March PF","engine":"bitsim"}`, "456fc93e4e3bb90281ea4e0b48e8662b4aa6d553826caa7e3d4e894cd37f557b"},
	{"stress", `{"corners":"nominal;hot","march_engine":"bitsim","opens":[4],"rdefs":[10000,100000,1000000],"tests":["March PF"],"us":[0,1.65,3.3]}`, "b0268c47700a23543ff39f7b09c7c177952b3c02818cf366049562f415bcf076"},
	{"stress", `{"opens":[4],"rdef_min":1e4,"rdef_max":1e6,"rdef_steps":3,"u_max":3.3,"u_steps":3,"corners":"nominal;hot","tests":["March PF"],"march_engine":"bitsim"}`, "b0268c47700a23543ff39f7b09c7c177952b3c02818cf366049562f415bcf076"},
	// All-defaults bodies, and explicit spellings of the defaults.
	{"inventory", `{}`, "9b615a6ed9702a9602a28fa5a3efc7d6afa78c9062ddb56752a0dc39f1c73db1"},
	{"inventory", `{"engine":"behav","sweep":"dense","rdef_min":1e3,"rdef_max":1e7,"rdef_steps":13,"u_max":3.3,"u_steps":12}`, "9b615a6ed9702a9602a28fa5a3efc7d6afa78c9062ddb56752a0dc39f1c73db1"},
	{"coverage", `{}`, "919bd628dbe8bb0c6c40bc180eb7f2f76419554c4454045b4532d91d918383af"},
	{"coverage", `{"engine":"bitsim","catalog":"classical","rows":4,"cols":2}`, "919bd628dbe8bb0c6c40bc180eb7f2f76419554c4454045b4532d91d918383af"},
	{"twocell", `{"test":"MATS+"}`, "80fbbfe01067a36df2ee957434ac73503a8234cf9127cc7cfdec3a6672e1c450"},
	{"twocell", `{"test":"MATS+","engine":"bitsim"}`, "80fbbfe01067a36df2ee957434ac73503a8234cf9127cc7cfdec3a6672e1c450"},
	{"matrix", `{}`, "ea91a78cf4e6a572c4ac394337c807399907f44813f2b8240884b1dd335a1225"},
	{"predict", `{"open":1}`, "0ffb774bb94fc62ff8b139a7e28f8f827f6067eec7653aeef3d0862d0bffd931"},
	{"stress", `{}`, "34158059c67f3b7b8dac7eb2219dbd76ce69ed1d13a2b06a9491d0b727f8521f"},
	{"stress", `{"march_engine":"bitsim"}`, "34158059c67f3b7b8dac7eb2219dbd76ce69ed1d13a2b06a9491d0b727f8521f"},
	{"stress", `{"engine":"behav","march_engine":"bitsim","corners":"low-vdd;hot;cold;weak-precharge;high-vdd","sweep":"dense","rows":4,"cols":2}`, "f82b2398d7df67e859612ef371afa4aa7e6863a51d947e50f40ae8bcd35df193"},
	// The open-5 counterexample, both ways, and a spice inventory.
	{"inventory", `{"opens":[5],"rdefs":[10000,100000,1000000],"us":[0,1.65,3.3],"sweep":"traced"}`, "c03617af2a15bae7093fdfb1ee7e2ab874818d38bf425b276e256b94dbe57f15"},
	{"inventory", `{"opens":[5],"rdefs":[10000,100000,1000000],"us":[0,1.65,3.3]}`, "c03617af2a15bae7093fdfb1ee7e2ab874818d38bf425b276e256b94dbe57f15"},
	{"stress", `{"opens":[4],"rdefs":[1e4,1e5,1e6],"us":[0,1.65,3.3],"corners":"nominal;hot","tests":["March PF"],"sweep":"traced"}`, "b0268c47700a23543ff39f7b09c7c177952b3c02818cf366049562f415bcf076"},
	{"inventory", `{"engine":"spice","opens":[1,4],"rdefs":[1e4,1e6],"us":[0,3.3]}`, "3b9eb6b4297a85f28fdce718a38f68d18649c63803ffa27c766eab5c7185775f"},
	// A repeated open ID is one open: the hot bodies with Open 4 twice.
	{"inventory", `{"opens":[4,4],"rdefs":[1000,10000,100000,1000000,10000000],"us":[0,1.0999999999999999,2.1999999999999997,3.3]}`, "ee9c2709e6315d2a6a8a9ec2b50d217b06fd55762ed9da6e31453b8aefd31bd6"},
	{"stress", `{"corners":"nominal;hot","opens":[4,4],"rdefs":[10000,100000,1000000],"tests":["March PF"],"us":[0,1.65,3.3]}`, "b0268c47700a23543ff39f7b09c7c177952b3c02818cf366049562f415bcf076"},
	// An axis keys as its ascending form without repeats: the Open 5 body
	// reversed, with a resistance listed twice.
	{"inventory", `{"opens":[5],"rdefs":[1e6,1e4,1e5,1e4],"us":[3.3,0,1.65]}`, "c03617af2a15bae7093fdfb1ee7e2ab874818d38bf425b276e256b94dbe57f15"},
}

// TestKeysPinned pins the store key of every request body the benchmark
// and the default spellings send, so stored blobs and the serve-mixed
// prefill keep their addresses. Traced bodies are keyed apart from the
// dense ones.
func TestKeysPinned(t *testing.T) {
	env := testEnv(t)
	for _, c := range pinnedBodies {
		k := bodyKey(t, env, c.kind, c.body)
		got := k.Digest()
		if strings.Contains(c.body, `"sweep":"traced"`) {
			if got == c.digest || !strings.HasSuffix(k.Spec, `"sweep":"traced"}`) {
				t.Errorf("%s %s: traced request shares the dense key (spec %s)", c.kind, c.body, k.Spec)
			}
			continue
		}
		if got != c.digest {
			t.Errorf("%s %s: digest %s, want %s (spec %s)", c.kind, c.body, got, c.digest, k.Spec)
		}
	}
}

// TestGridDefaultsCanonicalTracedApart checks that spelling the same
// grid via min/max/steps or via explicit axes produces the same store
// key, and that "dense" is the default spelling while "traced" gets a
// key of its own: traced and dense planes can differ where a fault
// region holds no sample.
func TestGridDefaultsCanonicalTracedApart(t *testing.T) {
	env := testEnv(t)
	a := Inventory{Grid: Grid{RDefMin: 1e3, RDefMax: 1e7, RDefSteps: 3, UMin: 0, UMax: 3.3, USteps: 3}}
	if err := a.Normalize(env); err != nil {
		t.Fatal(err)
	}
	ka := a.Key(env)
	for _, sweep := range []string{"", "dense"} {
		b := Inventory{Grid: Grid{RDefs: a.RDefs, Us: a.Us}, Sweep: sweep}
		if err := b.Normalize(env); err != nil {
			t.Fatal(err)
		}
		if kb := b.Key(env); kb != ka {
			t.Fatalf("sweep %q: specs differ:\n%s\n%s", sweep, ka.Spec, kb.Spec)
		}
	}
	c := Inventory{Grid: Grid{RDefs: a.RDefs, Us: a.Us}, Sweep: "traced"}
	if err := c.Normalize(env); err != nil {
		t.Fatal(err)
	}
	if kc := c.Key(env); kc.Digest() == ka.Digest() {
		t.Fatalf("traced request shares the dense key: %s", kc.Spec)
	}
}

// TestStressCanonicalCornersTracedApart checks that equivalent corner
// spellings share one store key — the built-in name and its explicit
// key=val derivation normalize to the same canonical corner list — and
// that a traced stress request is keyed apart from the dense one.
func TestStressCanonicalCornersTracedApart(t *testing.T) {
	env := testEnv(t)
	a := Stress{Corners: "low-vdd"}
	if err := a.Normalize(env); err != nil {
		t.Fatal(err)
	}
	ka := a.Key(env)
	for _, sweep := range []string{"", "dense"} {
		b := Stress{Corners: "nominal;low-vdd:vdd=0.9,vpp=0.9,temp=27", Sweep: sweep}
		if err := b.Normalize(env); err != nil {
			t.Fatal(err)
		}
		if kb := b.Key(env); kb != ka {
			t.Fatalf("sweep %q: stress specs differ:\n%s\n%s", sweep, ka.Spec, kb.Spec)
		}
	}
	c := Stress{Corners: "nominal;low-vdd:vdd=0.9,vpp=0.9,temp=27", Sweep: "traced"}
	if err := c.Normalize(env); err != nil {
		t.Fatal(err)
	}
	if kc := c.Key(env); kc.Digest() == ka.Digest() {
		t.Fatalf("traced stress request shares the dense key: %s", kc.Spec)
	}
}

// rejectedBodies are client errors, one or more per resolver.
var rejectedBodies = []struct{ kind, body string }{
	{"inventory", `{"engine":"verilog"}`},
	{"inventory", `{"opens":[99]}`},
	{"inventory", `{"sweep":"sideways"}`},
	{"inventory", `{"rdef_min":-1}`},
	{"inventory", `{"rdefs":[0]}`},
	{"inventory", `{"u_min":-1e308,"u_max":1e308,"u_steps":3}`},
	{"inventory", `{"opens":[4],"rdef_steps":-1,"u_steps":2}`},
	{"inventory", `{"u_steps":-3}`},
	{"inventory", `{"rdef_steps":100000}`},
	{"inventory", `{"us":[` + strings.Repeat("0,", maxAxisPoints) + `0]}`},
	{"inventory", `{"rdefs":[` + strings.Repeat("1e4,", maxAxisPoints) + `1e4]}`},
	{"coverage", `{"engine":"quantum"}`},
	{"coverage", `{"tests":["March ZZ"]}`},
	{"coverage", `{"catalog":"imaginary"}`},
	{"coverage", `{"engine":"bitsim","rows":-1,"cols":4}`},
	{"coverage", `{"rows":4,"cols":-2}`},
	{"coverage", `{"engine":"memsim","catalog":"classical","rows":4,"cols":2}`},
	{"coverage", `{"engine":"bitsim","rows":2147483648,"cols":2147483648,"tests":["March PF"]}`},
	{"coverage", `{"engine":"bitsim","rows":3037000500,"cols":3037000500,"tests":["March PF"]}`},
	{"coverage", `{"rows":65537,"cols":1}`},
	{"twocell", `{}`},
	{"twocell", `{"test":"MATS+","offsets":[0]}`},
	{"twocell", `{"test":"MATS+","offsets":[1,1]}`},
	{"twocell", `{"test":"MATS+","engine":"quantum"}`},
	{"twocell", `{"test":"March ZZ"}`},
	{"twocell", `{"test":"March SS","engine":"bitsim","rows":-4}`},
	{"twocell", `{"test":"MATS+","engine":"memsim"}`},
	{"twocell", `{"test":"March SS","rows":2147483648,"cols":2147483648,"offsets":[1,-1]}`},
	{"twocell", `{"test":"March SS","engine":"bitsim","rows":65,"cols":64}`},
	{"twocell", `{"test":"March SS","engine":"bitsim","rows":64,"cols":64,"offsets":[` + offsetList(maxTwoCellPasses+1) + `]}`},
	{"matrix", `{"tests":["March ZZ"]}`},
	{"predict", `{}`},
	{"predict", `{"open":1,"defects":[{"site":"bridge.bl.bl"}]}`},
	{"predict", `{"open":99}`},
	{"predict", `{"defects":[{"site":"nowhere"}]}`},
	{"predict", `{"defects":[{"site":"bridge.bl.bl","ohms":1e12}]}`},
	{"predict", `{"defects":[{"site":"bridge.bl.bl"},{"site":"bridge.bl.bl","ohms":2e6}]}`},
	{"predict", `{"defects":[{"site":"bridge.bl.bl","ohms":-5}]}`},
	{"stress", `{"corners":"volcanic"}`},
	{"stress", `{"corners":"lights-out:vdd=0.05"}`},
	{"stress", `{"engine":"verilog"}`},
	{"stress", `{"march_engine":"quantum"}`},
	{"stress", `{"sweep":"sideways"}`},
	{"stress", `{"rdef_max":-5}`},
	{"stress", `{"u_steps":-1}`},
	{"stress", `{"opens":[99]}`},
	{"stress", `{"tests":["March ZZ"]}`},
	{"stress", `{"opens":[4],"rdefs":[1e4],"us":[0],"cols":-1}`},
	{"stress", `{"engine":"behav","march_engine":"memsim","corners":"low-vdd;hot;cold;weak-precharge;high-vdd","sweep":"dense","rows":4,"cols":2}`},
	{"stress", `{"opens":[4],"rdefs":[1e4],"us":[0],"rows":2147483648,"cols":2147483648}`},
	{"stress", `{"opens":[4],"rdefs":[1e4],"us":[0],"corners":"` + cornerList(16) + `"}`},
	{"stress", `{"corners":"a:vdd=0.95;b:vdd=0.95"}`},
	{"stress", `{"corners":"nominal;twin:vdd=1"}`},
}

// cornerList renders n derived corners c1…cn, none of them nominal, as
// a stress corner list.
func cornerList(n int) string {
	cs := make([]string, n)
	for i := range cs {
		cs[i] = fmt.Sprintf("c%d:temp=%d", i+1, 30+i)
	}
	return strings.Join(cs, ";")
}

// offsetList renders the aggressor offsets 1…n as a JSON list body.
func offsetList(n int) string {
	ds := make([]string, n)
	for i := range ds {
		ds[i] = strconv.Itoa(i + 1)
	}
	return strings.Join(ds, ",")
}

// TestNormalizeRejects drives every resolver's error path: each body is
// a client error, answered with BadRequest before any key is built.
func TestNormalizeRejects(t *testing.T) {
	env := testEnv(t)
	for _, c := range rejectedBodies {
		q := newKind(t, c.kind)
		if err := json.Unmarshal([]byte(c.body), q); err != nil {
			t.Fatal(err)
		}
		var bad BadRequest
		if err := q.Normalize(env); !errors.As(err, &bad) {
			t.Errorf("%s %s: Normalize error %v, want a BadRequest", c.kind, c.body, err)
		}
	}
}

// TestRunEveryKind runs one small request of each kind through
// Normalize and Run, as the CLIs do.
func TestRunEveryKind(t *testing.T) {
	env := testEnv(t)
	ctx := context.Background()
	grid := Grid{RDefs: []float64{1e4, 1e6}, Us: []float64{0, 3.3}}
	rows, err := Do[[]analysis.Row](ctx, env, &Inventory{Opens: []int{4}, Grid: grid, Sweep: "traced"})
	if err != nil || len(rows) == 0 {
		t.Fatalf("inventory: %d rows, %v", len(rows), err)
	}
	cov, err := Do[[]march.CoverageResult](ctx, env, &Coverage{Tests: []string{"MATS+"}, Engine: "bitsim", Rows: 8, Cols: 8})
	if err != nil || len(cov) == 0 {
		t.Fatalf("coverage: %d results, %v", len(cov), err)
	}
	cert, err := Do[march.TwoCellCertificate](ctx, env, &TwoCell{Test: "MATS+", Offsets: []int{1, -1}})
	if err != nil || cert.Test != "MATS+" || len(cert.Entries) == 0 {
		t.Fatalf("twocell: %+v, %v", cert.Test, err)
	}
	m, err := Do[march.DetectionMatrix](ctx, env, &Matrix{Tests: []string{"MATS+"}})
	if err != nil || len(m.Rows) == 0 {
		t.Fatalf("matrix: %d rows, %v", len(m.Rows), err)
	}
	p, err := Do[Prediction](ctx, env, &Predict{Open: 9})
	if err != nil || p.Merges != nil || p.Element == "" {
		t.Fatalf("float prediction: %+v, %v", p, err)
	}
	p, err = Do[Prediction](ctx, env, &Predict{Defects: []PredictDefect{{Site: "bridge.bl.bl", Ohms: 2e6}}})
	if err != nil || p.Merges == nil || len(p.Defects) != 1 {
		t.Fatalf("merge prediction: %+v, %v", p, err)
	}
	res, err := Do[*stress.Result](ctx, env, &Stress{Corners: "hot", Tests: []string{"March PF"}, Opens: []int{4}, Grid: grid, Rows: 2, Cols: 2})
	if err != nil || len(res.Corners) != 2 {
		t.Fatalf("stress: %v", err)
	}
}

// TestDefaultBodiesMatchScalarOracle: every march body that names no
// engine runs on the bit-plane engine and answers exactly what the
// scalar memsim oracle answers when called directly — the single-cell
// coverage bodies, the two-cell certificate of every library test and
// the serve-mixed stress body — apart from the engine column.
func TestDefaultBodiesMatchScalarOracle(t *testing.T) {
	env := testEnv(t)
	ctx := context.Background()
	scalar := march.ScalarEngine{}
	blank := func(rs []march.CoverageResult) []march.CoverageResult {
		out := slices.Clone(rs)
		for i := range out {
			out[i].Engine = ""
		}
		return out
	}

	for _, body := range []string{`{}`, `{"catalog":"paper"}`, `{"catalog":"paper","tests":["March PF"]}`, `{"rows":3,"cols":5}`} {
		var q Coverage
		if err := decodeStrict(body, &q); err != nil {
			t.Fatal(err)
		}
		got, err := Do[[]march.CoverageResult](ctx, env, &q)
		if err != nil {
			t.Fatalf("coverage %s: %v", body, err)
		}
		for _, r := range got {
			if r.Engine != bitPlane.Name() {
				t.Errorf("coverage %s: %s × %s ran on %s", body, r.Test, r.Fault, r.Engine)
			}
		}
		want, err := march.CoverageMatrixWith(scalar, q.tests, q.catalog, q.Rows, q.Cols)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(blank(got), blank(want)) {
			t.Errorf("coverage %s differs from the scalar oracle", body)
		}
	}

	for _, mt := range march.All() {
		q := TwoCell{Test: mt.Name}
		got, err := Do[march.TwoCellCertificate](ctx, env, &q)
		if err != nil {
			t.Fatalf("twocell %s: %v", mt.Name, err)
		}
		want, err := march.TwoCellCertificateOffsetsWith(scalar, mt, march.TwoCellCatalog(), q.Rows, q.Cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*march.TwoCellCertificate{&got, &want} {
			for i := range c.Entries {
				if c == &got && c.Entries[i].Engine != bitPlane.Name() {
					t.Errorf("twocell %s: %s ran on %s", mt.Name, c.Entries[i].Entry, c.Entries[i].Engine)
				}
				c.Entries[i].Engine = ""
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("twocell %s differs from the scalar oracle", mt.Name)
		}
	}

	var q Stress
	if err := decodeStrict(`{"corners":"nominal;hot","opens":[4],"rdefs":[10000,100000,1000000],"tests":["March PF"],"us":[0,1.65,3.3]}`, &q); err != nil {
		t.Fatal(err)
	}
	got, err := Do[*stress.Result](ctx, env, &q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stress.Analyze(stress.Config{
		Corners: q.corners, Engine: q.Engine,
		MarchEngine: scalar,
		Opens:       q.opens, RDefs: q.RDefs, Us: q.Us,
		Tests: q.tests, Rows: q.Rows, Cols: q.Cols,
		Pool: env.Pool, Sweep: q.mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.MarchEngineName != bitPlane.Name() {
		t.Errorf("stress ran on %s", got.MarchEngineName)
	}
	for _, res := range []*stress.Result{got, want} {
		res.MarchEngineName = ""
		for i := range res.Corners {
			res.Corners[i].Coverage = blank(res.Corners[i].Coverage)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("stress body differs from the scalar oracle")
	}
}

// TestCapsAdmitTheirLimits: the geometry, two-cell pass and corner caps
// reject only what lies beyond them — the largest side, the all-pairs
// certificate at 64×64, 8 190 listed offsets and 16 corners (15 derived
// plus nominal) all normalize.
func TestCapsAdmitTheirLimits(t *testing.T) {
	env := testEnv(t)
	for _, c := range []struct{ kind, body string }{
		{"coverage", `{"rows":65536,"cols":65536}`},
		{"stress", `{"opens":[4],"rdefs":[1e4],"us":[0],"rows":65536,"cols":65536}`},
		{"twocell", `{"test":"March SS","rows":64,"cols":64}`},
		{"twocell", `{"test":"March SS","rows":65536,"cols":65536,"offsets":[` + offsetList(maxTwoCellPasses) + `]}`},
		{"stress", `{"opens":[4],"rdefs":[1e4],"us":[0],"corners":"` + cornerList(15) + `"}`},
	} {
		bodyKey(t, env, c.kind, c.body)
	}
}
