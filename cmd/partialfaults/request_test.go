package main

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/request"
)

// TestInventoryFlagsMatchServiceRequest: the request partialfaults
// builds from its flags normalizes to the store key of the matching
// /v1/inventory body.
func TestInventoryFlagsMatchServiceRequest(t *testing.T) {
	env, err := request.NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		engine, opens string
		quick         bool
		body          string
	}{
		{"behav", "", false, `{"rdef_max":1e8,"rdef_steps":11,"u_max":4.6,"u_steps":8}`},
		{"behav", "9, 4", true, `{"opens":[4,9],"rdef_min":1e4,"rdef_max":1e8,"rdef_steps":5,"u_max":4.6,"u_steps":4}`},
		{"spice", "7", true, `{"engine":"spice","opens":[7],"rdef_min":1e4,"rdef_max":1e8,"rdef_steps":5,"u_max":4.6,"u_steps":4}`},
	}
	for _, c := range cases {
		cli, err := inventoryRequest(c.engine, c.opens, c.quick)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Normalize(env); err != nil {
			t.Fatal(err)
		}
		var http request.Inventory
		dec := json.NewDecoder(strings.NewReader(c.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&http); err != nil {
			t.Fatal(err)
		}
		if err := http.Normalize(env); err != nil {
			t.Fatal(err)
		}
		if got, want := cli.Key(env), http.Key(env); got != want {
			t.Errorf("%+v: CLI key differs from %s:\n%+v\n%+v", c, c.body, got, want)
		}
	}
}
