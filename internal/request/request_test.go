package request

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/analysis/store"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/stress"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(nil, nil, 1)
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

// bodyKey decodes a service request body the way the service does and
// returns its normalized store key.
func bodyKey(t *testing.T, env *Env, kind, body string) store.Key {
	t.Helper()
	q := newKind(t, kind)
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(q); err != nil {
		t.Fatalf("%s %s: %v", kind, body, err)
	}
	if err := q.Normalize(env); err != nil {
		t.Fatalf("%s %s: %v", kind, body, err)
	}
	return q.Key(env)
}

// TestKeysPinned pins the store key of every request body the benchmark
// and the default spellings send: each digest was computed by the
// service before the request layer existed, so stored blobs and the
// serve-mixed prefill keep their addresses. Traced bodies are the one
// intended change — they no longer share the dense key.
func TestKeysPinned(t *testing.T) {
	env := testEnv(t)
	cases := []struct{ kind, body, digest string }{
		// The eleven hot-set bodies of the serve-mixed benchmark.
		{"inventory", `{"opens":[4],"rdefs":[1000,10000,100000,1000000,10000000],"us":[0,1.0999999999999999,2.1999999999999997,3.3]}`, "ee9c2709e6315d2a6a8a9ec2b50d217b06fd55762ed9da6e31453b8aefd31bd6"},
		{"inventory", `{"opens":[5],"rdefs":[10000,100000,1000000],"us":[0,1.65,3.3]}`, "c03617af2a15bae7093fdfb1ee7e2ab874818d38bf425b276e256b94dbe57f15"},
		{"coverage", `{"cols":128,"engine":"bitsim","rows":128}`, "7814a07d014d59fd4826f5c060e4e0dc4272d71b8d7e3be23c49b9e65e7fb870"},
		{"coverage", `{"catalog":"paper","cols":64,"engine":"bitsim","rows":64}`, "f53876818150e0ffdb56053ea5b46d814e8d1bdfc7c36f8858b8e989e382ee34"},
		{"coverage", `{"catalog":"paper","tests":["March PF"]}`, "603b9e6f08d2ef0b7657d77cee6babab1e57fc81a49f08016263f289fda85da5"},
		{"twocell", `{"cols":64,"engine":"bitsim","offsets":[1,-1,64,-64],"rows":64,"test":"March SS"}`, "9c8c245ba81265a0ff548f55f28dd2b5b535fa4f38b684b2282dd235789102db"},
		{"twocell", `{"test":"March PF"}`, "6e3cc47ac443aa38167d1e2c6276fdf88eb83cfc548f9ee97b958e9d35e4bf87"},
		{"matrix", `{"tests":["March PF"]}`, "5ae198380d0cdd081202e24b3dc58e537cb1b633eb73da17a0b4f1c73daaeca5"},
		{"predict", `{"open":4}`, "190070ccf30d0a64501065a2f4cb794846fdc6b8b7e22436f97d48fd0d8da3a4"},
		{"predict", `{"defects":[{"ohms":2000000,"site":"bridge.bl.bl"}]}`, "9195049f3c263ebb18993ae29e76a35bcc09f8ee090e29e3182a01c1d7a842e8"},
		{"stress", `{"corners":"nominal;hot","opens":[4],"rdefs":[10000,100000,1000000],"tests":["March PF"],"us":[0,1.65,3.3]}`, "6759ad25e9c70b50124ffd78ec2d48d16bd042e4251d1f8f218eb69569e8480c"},
		// The bit-plane bodies at the benchmark's small size.
		{"coverage", `{"cols":32,"engine":"bitsim","rows":32}`, "11d9edbbd0f6216f0f2745af01b1a27b91ea4290b024d6eaf959db4fbd8b0e6e"},
		{"coverage", `{"catalog":"paper","cols":16,"engine":"bitsim","rows":16}`, "6901a2929bfde8c4f13dfc170d10d002a1d6dff7ee06d56d4b0eca474f33562e"},
		{"twocell", `{"cols":16,"engine":"bitsim","offsets":[1,-1,16,-16],"rows":16,"test":"March SS"}`, "17a46e0f7e0faaf22a8b5d24b1315caf69a4431f1a3ab6c27157a463b38f7174"},
		// Min/max/steps spellings of the hot grids.
		{"inventory", `{"opens":[4],"rdef_min":1e3,"rdef_max":1e7,"rdef_steps":5,"u_max":3.3,"u_steps":4}`, "ee9c2709e6315d2a6a8a9ec2b50d217b06fd55762ed9da6e31453b8aefd31bd6"},
		{"inventory", `{"opens":[5],"rdef_min":1e4,"rdef_max":1e6,"rdef_steps":3,"u_max":3.3,"u_steps":3}`, "c03617af2a15bae7093fdfb1ee7e2ab874818d38bf425b276e256b94dbe57f15"},
		{"stress", `{"opens":[4],"rdef_min":1e4,"rdef_max":1e6,"rdef_steps":3,"u_max":3.3,"u_steps":3,"corners":"nominal;hot","tests":["March PF"]}`, "6759ad25e9c70b50124ffd78ec2d48d16bd042e4251d1f8f218eb69569e8480c"},
		// All-defaults bodies, and explicit spellings of the defaults.
		{"inventory", `{}`, "9b615a6ed9702a9602a28fa5a3efc7d6afa78c9062ddb56752a0dc39f1c73db1"},
		{"inventory", `{"engine":"behav","sweep":"dense","rdef_min":1e3,"rdef_max":1e7,"rdef_steps":13,"u_max":3.3,"u_steps":12}`, "9b615a6ed9702a9602a28fa5a3efc7d6afa78c9062ddb56752a0dc39f1c73db1"},
		{"coverage", `{}`, "823812c6d728b0643ac0fbc3493b0233da25bafc91690b6d57e6a078415212d1"},
		{"coverage", `{"engine":"memsim","catalog":"classical","rows":4,"cols":2}`, "823812c6d728b0643ac0fbc3493b0233da25bafc91690b6d57e6a078415212d1"},
		{"twocell", `{"test":"MATS+"}`, "fee3e0d49f0300e57747542e7469fb77476af96e53d60c99e8ba551e1ee9b3a5"},
		{"matrix", `{}`, "ea91a78cf4e6a572c4ac394337c807399907f44813f2b8240884b1dd335a1225"},
		{"predict", `{"open":1}`, "0ffb774bb94fc62ff8b139a7e28f8f827f6067eec7653aeef3d0862d0bffd931"},
		{"stress", `{}`, "e7db3c7f1d0f23d7356a058f7e0c87e4b827a2236093f41ed68827125f398a59"},
		{"stress", `{"engine":"behav","march_engine":"memsim","corners":"low-vdd;hot;cold;weak-precharge;high-vdd","sweep":"dense","rows":4,"cols":2}`, "c93ac26c30bd53d44f4292fdec1a9a8550e8c8688230c0f6487aab17292110c9"},
		// The open-5 counterexample, both ways, and a spice inventory.
		{"inventory", `{"opens":[5],"rdefs":[10000,100000,1000000],"us":[0,1.65,3.3],"sweep":"traced"}`, "c03617af2a15bae7093fdfb1ee7e2ab874818d38bf425b276e256b94dbe57f15"},
		{"inventory", `{"opens":[5],"rdefs":[10000,100000,1000000],"us":[0,1.65,3.3]}`, "c03617af2a15bae7093fdfb1ee7e2ab874818d38bf425b276e256b94dbe57f15"},
		{"stress", `{"opens":[4],"rdefs":[1e4,1e5,1e6],"us":[0,1.65,3.3],"corners":"nominal;hot","tests":["March PF"],"sweep":"traced"}`, "6759ad25e9c70b50124ffd78ec2d48d16bd042e4251d1f8f218eb69569e8480c"},
		{"inventory", `{"engine":"spice","opens":[1,4],"rdefs":[1e4,1e6],"us":[0,3.3]}`, "3b9eb6b4297a85f28fdce718a38f68d18649c63803ffa27c766eab5c7185775f"},
	}
	for _, c := range cases {
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

// TestNormalizeRejects drives every resolver's error path: each body is
// a client error, answered with BadRequest before any key is built.
func TestNormalizeRejects(t *testing.T) {
	env := testEnv(t)
	cases := []struct{ kind, body string }{
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
		{"twocell", `{}`},
		{"twocell", `{"test":"MATS+","offsets":[0]}`},
		{"twocell", `{"test":"MATS+","offsets":[1,1]}`},
		{"twocell", `{"test":"MATS+","engine":"quantum"}`},
		{"twocell", `{"test":"March ZZ"}`},
		{"matrix", `{"tests":["March ZZ"]}`},
		{"predict", `{}`},
		{"predict", `{"open":1,"defects":[{"site":"bridge.bl.bl"}]}`},
		{"predict", `{"open":99}`},
		{"predict", `{"defects":[{"site":"nowhere"}]}`},
		{"stress", `{"corners":"volcanic"}`},
		{"stress", `{"corners":"lights-out:vdd=0.05"}`},
		{"stress", `{"engine":"verilog"}`},
		{"stress", `{"march_engine":"quantum"}`},
		{"stress", `{"sweep":"sideways"}`},
		{"stress", `{"rdef_max":-5}`},
		{"stress", `{"u_steps":-1}`},
		{"stress", `{"opens":[99]}`},
		{"stress", `{"tests":["March ZZ"]}`},
	}
	for _, c := range cases {
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
