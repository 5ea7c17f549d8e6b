package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis/store"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/request"
)

type keyed interface {
	Normalize(*request.Env) error
	Key(*request.Env) store.Key
}

// key normalizes q, first decoding body into it the way the service
// does when body is not empty, and returns its store key.
func key(t *testing.T, env *request.Env, q keyed, body string) store.Key {
	t.Helper()
	if body != "" {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(q); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
	}
	if err := q.Normalize(env); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	return q.Key(env)
}

// TestFlagsMatchServiceRequests: every faultmap mode with a service kind
// builds, from its flags, the request whose normalized key equals that
// of the matching HTTP body — so the CLI and pfserve compute and cache
// one result.
func TestFlagsMatchServiceRequests(t *testing.T) {
	env, err := request.NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		kind string // request kind; its HTTP body is body
		body string
	}{
		{[]string{"-stress"}, "stress", `{}`},
		{[]string{"-stress", "-corners", "low-vdd", "-rdef-steps", "2", "-u-steps", "3"}, "stress",
			`{"corners":"nominal;low-vdd","rdefs":[1000,10000000],"us":[0,1.65,3.3]}`},
		{[]string{"-stress", "-corners", "hot", "-engine", "spice", "-sweep", "traced", "-rdef-min", "1e4", "-rdef-max", "1e6", "-rdef-steps", "3"}, "stress",
			`{"engine":"spice","march_engine":"bitsim","corners":"hot","rdef_min":1e4,"rdef_max":1e6,"rdef_steps":3,"sweep":"traced"}`},
		{[]string{"-prove", "March PF"}, "matrix", `{"tests":["March PF"]}`},
		{[]string{"-prove", "all"}, "matrix", `{}`},
		{[]string{"-twocell", "MATS+"}, "twocell", `{"test":"MATS+"}`},
		{[]string{"-twocell", "March SS"}, "twocell", `{"test":"March SS","engine":"bitsim","rows":4,"cols":2}`},
		{[]string{"-predict", "-open", "9"}, "predict", `{"open":9}`},
		{[]string{"-predict"}, "predict", `{"open":4}`},
		{[]string{"-defect", "short.cell.gnd, bridge.bl.bl@2e6"}, "predict",
			`{"defects":[{"site":"short.cell.gnd"},{"site":"bridge.bl.bl","ohms":2e6}]}`},
	}
	for _, c := range cases {
		o, err := parseFlags(c.args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		var cli, http keyed
		switch c.kind {
		case "stress":
			cli, http = o.stressRequest(), &request.Stress{}
		case "matrix":
			cli, http = o.matrixRequest(), &request.Matrix{}
		case "twocell":
			qs := o.twoCellRequests()
			if len(qs) != 1 {
				t.Fatalf("%v: %d requests", c.args, len(qs))
			}
			cli, http = qs[0], &request.TwoCell{}
		case "predict":
			if cli, err = o.predictRequest(); err != nil {
				t.Fatalf("%v: %v", c.args, err)
			}
			http = &request.Predict{}
		}
		if got, want := key(t, env, cli, ""), key(t, env, http, c.body); got != want {
			t.Errorf("%v: CLI key differs from %s:\n%+v\n%+v", c.args, c.body, got, want)
		}
	}

	// -twocell all is one request per library test.
	o, err := parseFlags([]string{"-twocell", "all"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	qs := o.twoCellRequests()
	if len(qs) != len(march.All()) {
		t.Fatalf("-twocell all built %d requests for %d tests", len(qs), len(march.All()))
	}
	for i, tt := range march.All() {
		body, _ := json.Marshal(map[string]string{"test": tt.Name})
		if got, want := key(t, env, qs[i], ""), key(t, env, &request.TwoCell{}, string(body)); got != want {
			t.Errorf("-twocell all, %s: key differs", tt.Name)
		}
	}
}
