package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// FuzzCacheGet: an on-disk entry holding arbitrary bytes — truncated
// writes, bit rot, another program's file — must never panic or serve
// bad data. Get either returns the one trustworthy outcome (a fully
// validated successful result) or reports a miss and deletes the junk
// so the engine silently re-runs the experiment.
func FuzzCacheGet(f *testing.F) {
	// Seed with a valid entry's bytes (from a scratch store), plus the
	// classic corruptions: empty, truncated JSON, wrong shapes.
	seedDir := f.TempDir()
	store, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	res := experiments.Result{ID: "E1", Table: &experiments.Table{
		ID: "E1", Title: "t", Headers: []string{"h"}, Rows: [][]string{{"v"}},
	}}
	if err := store.Put("E1", res); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(store.path(store.keyFor("E1", "")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":1,"key":{},"sha256":"x","payload":[]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		path := s.path(s.keyFor("E1", ""))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get("E1")
		if !ok {
			// A rejected entry must be removed (silent re-run, not a
			// permanent corrupt file) and counted as a corrupt miss.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("rejected entry left on disk (stat err %v)", err)
			}
			st := s.Stats()
			if st.Misses != 1 || st.Corrupt != 1 || st.Hits != 0 {
				t.Fatalf("stats after rejection = %+v", st)
			}
			return
		}
		// The fuzzer found (or was seeded) a fully valid entry: it
		// must be a successful result for the requested id, checksum
		// and all — never a failure, never someone else's table.
		if got.ID != "E1" || got.Err != nil || got.Table == nil {
			t.Fatalf("Get served an untrustworthy result: %+v", got)
		}
		// And the store must not have grown junk siblings.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range entries {
			if filepath.Ext(de.Name()) != ".json" {
				t.Fatalf("unexpected file %s in store", de.Name())
			}
		}
	})
}
