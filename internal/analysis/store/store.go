// Package store is the disk-persistent, content-addressed result store
// behind the analysis service: request results survive restarts and
// invalidate automatically because the address of every entry is a
// digest of all model inputs — netlist fingerprint, defect-catalog
// fingerprint, technology, and the canonical sweep/request spec. A
// changed input changes the address, so a stale result can never be
// served; it is simply never found.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Key addresses one stored result. All fields participate in the
// digest; an entry is retrievable only under the exact key that stored
// it.
type Key struct {
	// Model is the simulation-model fingerprint — engine kind, netlist
	// and technology (analysis.Fingerprint rendered) — or a fingerprint
	// of the static prover inputs for simulation-free results.
	Model string `json:"model"`
	// Catalog fingerprints the fault/defect catalogs the result ranges
	// over (opens, march tests, FP catalogs).
	Catalog string `json:"catalog"`
	// Kind names the result family ("inventory", "coverage", ...); it
	// keeps specs of different request types from aliasing.
	Kind string `json:"kind"`
	// Spec is the canonical encoding of the request parameters (grids,
	// geometry, test selection, offsets, ...).
	Spec string `json:"spec"`
}

// Digest returns the content address: a sha256 over the length-prefixed
// fields, rendered as hex.
func (k Key) Digest() string {
	h := sha256.New()
	for _, part := range []string{k.Model, k.Catalog, k.Kind, k.Spec} {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// envelope is the on-disk schema: the full key rides along with the
// payload so Get can verify the entry it addressed is the entry it
// wanted — a digest collision or a corrupted file surfaces as an error,
// never as a silently wrong result.
type envelope struct {
	Key     Key             `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// Stats counts store traffic since the Store was opened.
type Stats struct {
	Hits, Misses, Puts uint64
}

// Store is a directory of content-addressed results. It is safe for
// concurrent use; writes are atomic (temp file + rename), so a reader
// never observes a partial entry and concurrent writers of the same key
// are idempotent.
type Store struct {
	dir string

	mu    sync.Mutex
	stats Stats
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.Digest()+".json")
}

// Get returns the payload stored under the key, if present. A present
// entry whose embedded key differs from the requested one is an error
// (corruption or digest collision), not a hit.
func (s *Store) Get(k Key) ([]byte, bool, error) {
	buf, err := os.ReadFile(s.path(k))
	if os.IsNotExist(err) {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return nil, false, fmt.Errorf("store: corrupt entry %s: %w", k.Digest(), err)
	}
	if env.Key != k {
		return nil, false, fmt.Errorf("store: entry %s addressed by %+v but contains %+v", k.Digest(), k, env.Key)
	}
	s.count(func(st *Stats) { st.Hits++ })
	return env.Payload, true, nil
}

// Put stores the payload (which must be valid JSON) under the key,
// atomically.
func (s *Store) Put(k Key, payload []byte) error {
	if !json.Valid(payload) {
		return fmt.Errorf("store: payload for %s is not valid JSON", k.Digest())
	}
	env, err := json.Marshal(envelope{Key: k, Payload: json.RawMessage(payload)})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeAtomic(s.path(k), append(env, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.count(func(st *Stats) { st.Puts++ })
	return nil
}

// Len counts stored result entries.
func (s *Store) Len() (int, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return len(matches), nil
}

// Stats returns traffic counters since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.stats)
}

// writeAtomic writes via a temp file in the same directory plus rename,
// so concurrent writers race benignly and readers never see partial
// content. The temp file is synced before the rename: otherwise a power
// cut after the rename can leave the entry's name pointing at an empty
// file, which Get would then reject as corrupt on every request.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
