package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestKeyDigestSensitivity(t *testing.T) {
	base := Key{Model: "behav:abc", Catalog: "cat:def", Kind: "inventory", Spec: "grid=5x4"}
	variants := []Key{
		{Model: "spice:abc", Catalog: "cat:def", Kind: "inventory", Spec: "grid=5x4"},
		{Model: "behav:abc", Catalog: "cat:OTHER", Kind: "inventory", Spec: "grid=5x4"},
		{Model: "behav:abc", Catalog: "cat:def", Kind: "coverage", Spec: "grid=5x4"},
		{Model: "behav:abc", Catalog: "cat:def", Kind: "inventory", Spec: "grid=5x5"},
	}
	seen := map[string]Key{base.Digest(): base}
	for _, v := range variants {
		d := v.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest collision between %+v and %+v", prev, v)
		}
		seen[d] = v
	}
	if base.Digest() != base.Digest() {
		t.Fatal("digest is not deterministic")
	}
}

func TestKeyDigestNoFieldAliasing(t *testing.T) {
	// Length-prefixed hashing: moving a boundary between adjacent
	// fields must change the digest.
	a := Key{Model: "ab", Catalog: "c", Kind: "k", Spec: "s"}
	b := Key{Model: "a", Catalog: "bc", Kind: "k", Spec: "s"}
	if a.Digest() == b.Digest() {
		t.Fatal("adjacent fields alias in the digest")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Model: "behav:abc", Catalog: "cat:def", Kind: "inventory", Spec: "grid"}
	if _, ok, err := s.Get(k); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	type payload struct {
		Rows []string `json:"rows"`
		N    int      `json:"n"`
	}
	want := payload{Rows: []string{"CFds", "TF0"}, N: 2}
	buf, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, buf); err != nil {
		t.Fatal(err)
	}
	stored, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	var got payload
	if err := json.Unmarshal(stored, &got); err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || len(got.Rows) != 2 || got.Rows[0] != "CFds" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1/1/1", st)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("len = %d, %v", n, err)
	}
}

// TestStoreInvalidation is the store-level half of the acceptance
// criterion: changing any model input — netlist/technology (model
// fingerprint), defect catalog, or sweep spec — must miss, never serve
// the old entry.
func TestStoreInvalidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Model: "spice:netlistA", Catalog: "cat:v1", Kind: "inventory", Spec: "grid=5x4"}
	if err := s.Put(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	for name, changed := range map[string]Key{
		"technology/netlist": {Model: "spice:netlistB", Catalog: k.Catalog, Kind: k.Kind, Spec: k.Spec},
		"model kind":         {Model: "behav:netlistA", Catalog: k.Catalog, Kind: k.Kind, Spec: k.Spec},
		"catalog":            {Model: k.Model, Catalog: "cat:v2", Kind: k.Kind, Spec: k.Spec},
		"spec":               {Model: k.Model, Catalog: k.Catalog, Kind: k.Kind, Spec: "grid=9x9"},
	} {
		if _, ok, err := s.Get(changed); err != nil {
			t.Fatalf("%s: %v", name, err)
		} else if ok {
			t.Fatalf("%s change still served the stale entry", name)
		}
	}
	if _, ok, err := s.Get(k); err != nil || !ok {
		t.Fatalf("original key no longer hits: ok=%v err=%v", ok, err)
	}
}

func TestStoreDetectsTamperedEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Model: "m", Catalog: "c", Kind: "k", Spec: "s"}
	if err := s.Put(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// Overwrite the entry with an envelope claiming a different key —
	// simulating corruption or a digest collision.
	other := Key{Model: "m2", Catalog: "c", Kind: "k", Spec: "s"}
	env := fmt.Sprintf(`{"key":{"model":%q,"catalog":"c","kind":"k","spec":"s"},"payload":{"v":2}}`, other.Model)
	if err := os.WriteFile(filepath.Join(dir, k.Digest()+".json"), []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(k); err == nil {
		t.Fatal("mismatched embedded key was not detected")
	}
	// Truly corrupt bytes are an error too, not a silent miss.
	if err := os.WriteFile(filepath.Join(dir, k.Digest()+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(k); err == nil {
		t.Fatal("corrupt entry was not detected")
	}
}

func TestStoreRejectsInvalidJSONPayload(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key{Kind: "k"}, []byte("not json")); err == nil {
		t.Fatal("invalid payload accepted")
	}
}

// TestStoreConcurrent hammers one store with mixed readers and writers
// across overlapping keys; run with -race this doubles as the data-race
// check, and the atomic-rename write path guarantees no reader ever
// sees a torn entry.
func TestStoreConcurrent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys, rounds = 8, 5, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := Key{Model: "m", Kind: "k", Spec: fmt.Sprintf("spec-%d", (w+r)%keys)}
				if w%2 == 0 {
					if err := s.Put(k, []byte(fmt.Sprintf(`{"w":%d,"r":%d}`, w, r))); err != nil {
						errs <- err
						return
					}
				}
				if buf, ok, err := s.Get(k); err != nil {
					errs <- err
					return
				} else if ok && len(buf) == 0 {
					errs <- fmt.Errorf("empty payload for present key")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := s.Len(); err != nil || n != keys {
		t.Fatalf("len = %d, %v; want %d", n, err, keys)
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Model: "m", Kind: "k", Spec: "s"}
	if err := s1.Put(k, []byte(`{"v":42}`)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	buf, ok, err := s2.Get(k)
	if err != nil || !ok {
		t.Fatalf("reopened store: ok=%v err=%v", ok, err)
	}
	if string(buf) != `{"v":42}` {
		t.Fatalf("payload = %s", buf)
	}
}
