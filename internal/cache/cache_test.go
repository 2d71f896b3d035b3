package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
)

func tableResult(id, title string) experiments.Result {
	return experiments.Result{ID: id, Table: &experiments.Table{
		ID:      id,
		Title:   title,
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
		Notes:   []string{"note"},
	}}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{})
	want := tableResult("E1", "round trip")
	if err := s.Put("E1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("E1")
	if !ok {
		t.Fatal("Get missed a fresh Put")
	}
	if got.Err != nil || got.Table == nil {
		t.Fatalf("got %+v", got)
	}
	if got.Table.Title != want.Table.Title || len(got.Table.Rows) != 2 || got.Table.Rows[1][1] != "4" {
		t.Fatalf("table mangled: %+v", got.Table)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetMissOnEmptyStore(t *testing.T) {
	s := mustOpen(t, Options{})
	if _, ok := s.Get("E1"); ok {
		t.Fatal("hit on empty store")
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutRefusesFailedResult(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.Put("E1", experiments.Result{ID: "E1", Err: errors.New("boom")}); err == nil {
		t.Fatal("stored a failed result")
	}
	if err := s.Put("E1", experiments.Result{ID: "E1"}); err == nil {
		t.Fatal("stored a result with no table")
	}
	if _, ok := s.Get("E1"); ok {
		t.Fatal("refused Put still produced a hit")
	}
}

// entryPaths returns the store's entry files.
func entryPaths(t *testing.T, s *Store) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestCorruptedEntryIsAMissAndRemoved(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"bit flip":   func(b []byte) []byte { b[len(b)/2] ^= 0x20; return b },
		"not json":   func([]byte) []byte { return []byte("garbage") },
		"empty file": func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, Options{})
			if err := s.Put("E1", tableResult("E1", "victim")); err != nil {
				t.Fatal(err)
			}
			paths := entryPaths(t, s)
			if len(paths) != 1 {
				t.Fatalf("entries = %v", paths)
			}
			raw, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[0], corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("E1"); ok {
				t.Fatal("served a corrupted entry")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats = %+v", st)
			}
			if left := entryPaths(t, s); len(left) != 0 {
				t.Fatalf("corrupted entry not removed: %v", left)
			}
		})
	}
}

func TestVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	bumps := map[string]Options{
		"registry": {RegistryVersion: "e1-e14/v2"},
		"go":       {GoVersion: "go9.9.9"},
		"module":   {ModuleVersion: "repro@v2.0.0"},
	}
	for name, opts := range bumps {
		t.Run(name, func(t *testing.T) {
			old, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := old.Put("E1", tableResult("E1", "old generation")); err != nil {
				t.Fatal(err)
			}
			bumped, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := bumped.Get("E1"); ok {
				t.Fatalf("%s bump still hit the old entry", name)
			}
			// The old generation remains valid for the old key.
			if _, ok := old.Get("E1"); !ok {
				t.Fatal("old-generation entry lost")
			}
		})
	}
}

// TestMismatchedEntryKeyRejected copies an entry file onto the path a
// different store generation would look up — the recorded key no
// longer matches, so it must be discarded even though the checksum is
// intact.
func TestMismatchedEntryKeyRejected(t *testing.T) {
	dir := t.TempDir()
	v1, err := Open(dir, Options{RegistryVersion: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Put("E1", tableResult("E1", "from v1")); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dir, Options{RegistryVersion: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	src := v1.path(v1.keyFor("E1", ""))
	dst := v2.path(v2.keyFor("E1", ""))
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get("E1"); ok {
		t.Fatal("served an entry recorded under a different key")
	}
	if st := v2.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFingerprintSeparatesFields(t *testing.T) {
	a := ArtifactKey{ID: "E1", SpaceVersion: "v1"}
	b := ArtifactKey{ID: "E1v", SpaceVersion: "1"}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("field boundaries not separated in the fingerprint")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	// A parameter key must never collide with a fixed-point key,
	// including the pathological spelling where the parameter parts
	// leak into another field: the part stream is length-prefixed, so
	// the part count parses unambiguously.
	p := ArtifactKey{ID: "E1", SpaceVersion: "v1", Params: "0.1,1"}
	twisted := ArtifactKey{ID: "E1", SpaceVersion: "v1", ModuleVersion: "6:params5:0.1,1"}
	if p.Fingerprint() == a.Fingerprint() || p.Fingerprint() == twisted.Fingerprint() {
		t.Fatal("parameter key collides with a fixed-point key")
	}
}

// entryBytes measures the on-disk size of one representative entry so
// the LRU tests can pick caps that fit exactly N entries.
func entryBytes(t *testing.T) int64 {
	t.Helper()
	s := mustOpen(t, Options{})
	if err := s.Put("E1", tableResult("E1", "probe")); err != nil {
		t.Fatal(err)
	}
	paths := entryPaths(t, s)
	if len(paths) != 1 {
		t.Fatalf("entries = %v", paths)
	}
	info, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestLRUEviction(t *testing.T) {
	// Cap fits one entry but not two (titles differ by a byte or two,
	// hence the slack).
	s, err := Open(t.TempDir(), Options{MaxBytes: entryBytes(t) + 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("E1", tableResult("E1", "first")); err != nil {
		t.Fatal(err)
	}
	// Backdate E1 so mtime ordering is unambiguous on coarse clocks;
	// the second Put must then evict it to chase the cap.
	old := time.Now().Add(-time.Hour)
	for _, p := range entryPaths(t, s) {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("E2", tableResult("E2", "second")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("E1"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := s.Get("E2"); !ok {
		t.Fatal("fresh entry evicted instead of the LRU one")
	}
	if st := s.Stats(); st.Evicted == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	// Cap fits two entries but not three.
	s, err := Open(t.TempDir(), Options{MaxBytes: 2*entryBytes(t) + 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("E1", tableResult("E1", "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("E2", tableResult("E2", "b")); err != nil {
		t.Fatal(err)
	}
	// Backdate both, then touch E1 via Get: E2 becomes the LRU victim.
	old := time.Now().Add(-time.Hour)
	for _, p := range entryPaths(t, s) {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("E1"); !ok {
		t.Fatal("warm entry missed")
	}
	if err := s.Put("E3", tableResult("E3", "c")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("E1"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := s.Get("E2"); ok {
		t.Fatal("least recently used entry survived")
	}
}

// TestStaleTempSweep: orphaned temp files from crashed writes are
// removed on Open, while a fresh temp file (a live writer) survives.
func TestStaleTempSweep(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-crashed")
	fresh := filepath.Join(dir, ".tmp-live")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file not swept on Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file swept — could have been a live writer")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, Options{})
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			id := []string{"E1", "E2"}[w%2]
			for i := 0; i < 25; i++ {
				if err := s.Put(id, tableResult(id, "concurrent")); err != nil {
					done <- err
					return
				}
				if r, ok := s.Get(id); ok && r.Table.Title != "concurrent" {
					done <- errors.New("torn read")
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFingerprintBackCompat pins the byte-compatibility contract of
// the key scheme, so existing stores (and the cache-surgery gate's
// warm fleet) stay warm: a fixed-point key hashes exactly the four
// length-prefixed parts the original scheme hashed, and a parameter
// point appends the literal "params" tag and its canonical rendering.
func TestFingerprintBackCompat(t *testing.T) {
	hash := func(parts ...string) string {
		h := sha256.New()
		for _, part := range parts {
			fmt.Fprintf(h, "%d:%s", len(part), part)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	k := ArtifactKey{
		ID:            "E2",
		SpaceVersion:  "e1-e14/v1",
		GoVersion:     "go1.22.0",
		ModuleVersion: "repro@(devel)",
	}
	if want := hash(k.ID, k.SpaceVersion, k.GoVersion, k.ModuleVersion); k.Fingerprint() != want {
		t.Fatalf("whole-result fingerprint diverged from the original scheme:\n%s\nvs\n%s", k.Fingerprint(), want)
	}
	k.Params = "i0=0,i1=1,k=3"
	if want := hash(k.ID, k.SpaceVersion, k.GoVersion, k.ModuleVersion, "params", k.Params); k.Fingerprint() != want {
		t.Fatalf("parameter-point fingerprint diverged:\n%s\nvs\n%s", k.Fingerprint(), want)
	}
}

// TestLegacyEnvelopeStillHits: an entry written by the original
// store — a four-field key object — must still validate and serve,
// because ArtifactKey keeps the old JSON form for fixed-point results
// (omitempty params) and the old fingerprint bytes.
func TestLegacyEnvelopeStillHits(t *testing.T) {
	s := mustOpen(t, Options{})
	var payload bytes.Buffer
	if err := experiments.EncodeJSON(&payload, []experiments.Result{tableResult("E1", "legacy")}); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(compact.Bytes())
	k := s.keyFor("E1", "")
	// Hand-build the old envelope shape: the key object spelled with
	// exactly the four legacy fields.
	raw, err := json.Marshal(map[string]any{
		"schema": schemaVersion,
		"key": map[string]string{
			"experiment":       k.ID,
			"registry_version": k.SpaceVersion,
			"go_version":       k.GoVersion,
			"module_version":   k.ModuleVersion,
		},
		"sha256":  hex.EncodeToString(sum[:]),
		"payload": json.RawMessage(compact.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("E1")
	if !ok {
		t.Fatal("legacy whole-result entry missed")
	}
	if got.Table == nil || got.Table.Title != "legacy" {
		t.Fatalf("legacy entry mangled: %+v", got)
	}
}

// TestSlicePayloadKindsDontCross: an entry whose payload is not a
// result — here the execution-count aggregate older stores kept for
// prefix slices — passes the checksum under a whole key but fails the
// payload decode: rejected, removed, counted.
func TestSlicePayloadKindsDontCross(t *testing.T) {
	s := mustOpen(t, Options{})
	payload := []byte(`{"execs":7}`)
	sum := sha256.Sum256(payload)
	k := s.keyFor("E2", "")
	forged, err := json.Marshal(envelope{
		Schema:  schemaVersion,
		Key:     k,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("E2"); ok {
		t.Fatal("aggregate payload served as a whole result")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if left := entryPaths(t, s); len(left) != 0 {
		t.Fatalf("rejected entry not removed: %v", left)
	}
}

// TestMixedEviction: fixed-point results and parameter points share
// one byte cap and one LRU order — recently used entries of either
// kind survive, the stale ones go, whatever their kind.
func TestMixedEviction(t *testing.T) {
	// A cap that fits roughly three entries of the sizes used here.
	s, err := Open(t.TempDir(), Options{MaxBytes: 3*entryBytes(t) + 48})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("E1", tableResult("E1", "whole-old")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutParam("E2", "k=1", tableResult("E2", "k=1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutParam("E2", "k=2", tableResult("E2", "k=2")); err != nil {
		t.Fatal(err)
	}
	// Backdate everything, then refresh the fixed entry and one point:
	// the untouched point becomes the LRU victim of the next write.
	old := time.Now().Add(-time.Hour)
	for _, p := range entryPaths(t, s) {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("E1"); !ok {
		t.Fatal("fixed entry missed")
	}
	if _, ok := s.GetParam("E2", "k=1"); !ok {
		t.Fatal("point entry missed")
	}
	if err := s.PutParam("E2", "k=3", tableResult("E2", "k=3")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetParam("E2", "k=2"); ok {
		t.Fatal("LRU point survived a mixed eviction")
	}
	if _, ok := s.Get("E1"); !ok {
		t.Fatal("recently used fixed entry evicted")
	}
	if _, ok := s.GetParam("E2", "k=1"); !ok {
		t.Fatal("recently used point evicted")
	}
	if st := s.Stats(); st.Evicted == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
