package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/request"
)

// TestTwoCellFlagsMatchServiceRequest: the request marchsim -twocell
// builds from its flags normalizes to the store key of the matching
// /v1/twocell body.
func TestTwoCellFlagsMatchServiceRequest(t *testing.T) {
	env, err := request.NewEnv(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		body string
	}{
		{[]string{"-twocell", "-test", "March PF"}, `{"test":"March PF"}`},
		{[]string{"-twocell", "-test", "March C-", "-rows", "3", "-cols", "3", "-offsets", "1,-1"},
			`{"test":"March C-","rows":3,"cols":3,"offsets":[1,-1]}`},
		{[]string{"-twocell", "-test", "March SS", "-geometry", "64x64", "-offsets", "1,-1,64,-64"},
			`{"test":"March SS","engine":"bitsim","rows":64,"cols":64,"offsets":[1,-1,64,-64]}`},
	}
	for _, c := range cases {
		o, err := parseFlags(c.args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		cli := o.twoCellRequest(o.test)
		if err := cli.Normalize(env); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		var http request.TwoCell
		dec := json.NewDecoder(strings.NewReader(c.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&http); err != nil {
			t.Fatal(err)
		}
		if err := http.Normalize(env); err != nil {
			t.Fatal(err)
		}
		if got, want := cli.Key(env), http.Key(env); got != want {
			t.Errorf("%v: CLI key differs from %s:\n%+v\n%+v", c.args, c.body, got, want)
		}
	}
}
