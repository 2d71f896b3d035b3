// Package cache is a content-addressed, on-disk result store for
// experiment outputs: one experiment's Result — at its fixed point or
// at one parameter point of its family — in the JSON wire form of
// internal/experiments (EncodeJSON/DecodeJSON).
//
// Every entry is addressed by a SHA-256 fingerprint of its ArtifactKey
// (experiment id, parameter point, space version, Go version, module
// version): any version bump changes the fingerprint, so a stale store
// invalidates itself by missing rather than by being scrubbed. The
// fixed-point fingerprint is byte-compatible with the original key
// scheme, so long-lived stores stay warm; files written under key
// shapes this package no longer produces are never read again and age
// out under the byte cap. Writes are atomic (temp file + rename in the
// store directory), every payload carries its own checksum, and
// entries that fail any check — envelope schema, recorded key,
// checksum, decode — are deleted and reported as misses so corruption
// always falls back to re-computing that result, never to serving bad
// bytes. A byte-size cap evicts least-recently-used entries (Get
// refreshes an entry's mtime) on write.
//
// Store implements experiments.ParamCache (a superset of
// experiments.Cache), so it plugs directly into experiments.Options,
// internal/server, and internal/shard's front-cache read-through;
// cmd/figures (-cache-dir) and cmd/figuresd wire it up. Stats counts
// hits, misses, corruption, and evictions since Open — the counters
// internal/server republishes on its /stats endpoint.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// schemaVersion is the on-disk envelope format generation. Bumping it
// orphans every existing entry (they fail the envelope check and are
// removed on first read).
const schemaVersion = 1

// DefaultMaxBytes caps the store at 256 MiB unless Options.MaxBytes
// overrides it — two orders of magnitude above a full E1–E16 table
// set, so eviction only matters for long-lived shared directories.
const DefaultMaxBytes = 256 << 20

// Options configures Open. The zero value is usable: versions default
// to this build's, the size cap to DefaultMaxBytes.
type Options struct {
	// MaxBytes caps the total size of stored entries; <= 0 means
	// DefaultMaxBytes. The cap is enforced on Put by evicting the
	// least-recently-used entries.
	MaxBytes int64
	// SpaceVersion resolves one experiment id to the version naming
	// its cache-identity generation; nil means
	// experiments.SpaceVersion, the per-family resolver — bumping one
	// family's code version moves only that family's fingerprints.
	SpaceVersion func(id string) string
	// RegistryVersion, when non-empty, pins every experiment to one
	// constant version instead (the pre-family behaviour; tests use
	// it). Ignored when SpaceVersion is set.
	RegistryVersion string
	// GoVersion defaults to runtime.Version().
	GoVersion string
	// ModuleVersion defaults to the main module's path@version from
	// the build info ("repro@(devel)" for source builds).
	ModuleVersion string
}

// Stats counts a store's traffic since Open.
type Stats struct {
	Hits    int64 // Get served a stored result
	Misses  int64 // Get found nothing usable
	Corrupt int64 // subset of the misses: an entry existed but failed a check
	Evicted int64 // entries removed by the size cap
}

// HitRate returns hits/(hits+misses) in [0, 1], and 0 for
// an idle store.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ArtifactKey is the full cache key of one artifact. Every field
// participates in the fingerprint, and the stored copy must match the
// store's own key on read — a fingerprint collision or a file copied
// between stores with different versions is detected and discarded,
// never served. An empty Params means the experiment's fixed point; a non-empty Params (the
// canonical experiments.ParamSet rendering) means one parameter point
// of its family. SpaceVersion is the per-experiment identity
// generation (experiments.SpaceVersion) — it keeps the pre-family
// "registry_version" JSON key, and for an experiment with no family
// version it IS the registry version, so entries written before
// per-space identity existed still validate.
type ArtifactKey struct {
	ID            string `json:"experiment"`
	Params        string `json:"params,omitempty"`
	SpaceVersion  string `json:"registry_version"`
	GoVersion     string `json:"go_version"`
	ModuleVersion string `json:"module_version"`
}

// Fingerprint returns the hex SHA-256 content address of the key.
// Fixed-point keys hash exactly the four parts the original scheme
// hashed — byte-compatible, so an existing store stays warm; parameter
// points append the literal tag "params" plus the canonical rendering
// (the tag keeps a parameter key from colliding with the five-part
// keys earlier generations of the store wrote). Length-prefixing makes
// the part stream unambiguous, so neither field boundaries nor the
// part count can collide.
func (k ArtifactKey) Fingerprint() string {
	h := sha256.New()
	parts := []string{k.ID, k.SpaceVersion, k.GoVersion, k.ModuleVersion}
	if k.Params != "" {
		parts = append(parts, "params", k.Params)
	}
	for _, part := range parts {
		// Length-prefix each part so ("a", "bc") and ("ab", "c")
		// cannot collide.
		fmt.Fprintf(h, "%d:%s", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// envelope is the on-disk entry format: the key it was stored under,
// a checksum of the payload, and the payload itself — the one-element
// EncodeJSON array of a whole result.
type envelope struct {
	Schema  int             `json:"schema"`
	Key     ArtifactKey     `json:"key"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// Store is an on-disk artifact cache. It is safe for concurrent use by
// multiple goroutines; concurrent processes sharing a directory are
// safe too (atomic renames), though their evictions race benignly.
type Store struct {
	dir      string
	maxBytes int64
	// key is the per-entry template (ID, Params, and SpaceVersion
	// filled per entry by keyFor).
	key          ArtifactKey
	spaceVersion func(id string) string

	mu    sync.Mutex
	stats Stats
}

var _ experiments.ParamCache = (*Store)(nil)

// Open creates dir if needed and returns a store over it.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	// Identity resolution order: an explicit per-space resolver, a
	// pinned constant (tests and byte-compat callers), then the
	// per-family default.
	spaceVersion := opts.SpaceVersion
	if spaceVersion == nil {
		if opts.RegistryVersion != "" {
			pinned := opts.RegistryVersion
			spaceVersion = func(string) string { return pinned }
		} else {
			spaceVersion = experiments.SpaceVersion
		}
	}
	if opts.GoVersion == "" {
		opts.GoVersion = runtime.Version()
	}
	if opts.ModuleVersion == "" {
		opts.ModuleVersion = buildModuleVersion()
	}
	sweepStaleTemps(dir)
	return &Store{
		dir:          dir,
		maxBytes:     opts.MaxBytes,
		spaceVersion: spaceVersion,
		key: ArtifactKey{
			GoVersion:     opts.GoVersion,
			ModuleVersion: opts.ModuleVersion,
		},
	}, nil
}

// buildModuleVersion identifies the main module of this binary.
func buildModuleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Path != "" {
		return bi.Main.Path + "@" + bi.Main.Version
	}
	return "unknown"
}

// keyFor returns the full key for one experiment id and parameter
// point ("" = the fixed point), resolving the id's space version
// through the store's per-family resolver.
func (s *Store) keyFor(id, params string) ArtifactKey {
	k := s.key
	k.ID = id
	k.Params = params
	k.SpaceVersion = s.spaceVersion(id)
	return k
}

func (s *Store) path(k ArtifactKey) string {
	return filepath.Join(s.dir, k.Fingerprint()+".json")
}

// readEntry loads and validates the envelope stored under k, returning
// its payload. A missing file is a plain miss (ok false, corrupt
// false); an entry failing any envelope check — schema, recorded key,
// checksum — is deleted and reported corrupt. Payload-level decoding
// belongs to the caller; rejectEntry is its counterpart for payloads
// that fail there.
func (s *Store) readEntry(k ArtifactKey) (payload []byte, ok, corrupt bool) {
	path := s.path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		s.rejectEntry(k)
		return nil, false, true
	}
	if env.Schema != schemaVersion || env.Key != k {
		s.rejectEntry(k)
		return nil, false, true
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		s.rejectEntry(k)
		return nil, false, true
	}
	// Refresh the entry's recency for LRU eviction; best-effort.
	now := time.Now()
	os.Chtimes(path, now, now)
	return env.Payload, true, false
}

// rejectEntry removes an untrustworthy entry so the result silently
// recomputes instead of failing the same way on every lookup.
func (s *Store) rejectEntry(k ArtifactKey) {
	os.Remove(s.path(k))
}

// Get implements experiments.Cache. Untrustworthy entries — wrong
// schema, mismatched key, bad checksum, undecodable payload, or a
// stored failure — are deleted and reported as corrupt misses.
func (s *Store) Get(id string) (experiments.Result, bool) {
	return s.getResult(s.keyFor(id, ""))
}

// getResult is the shared lookup behind Get and GetParam: one whole
// result under one fully-resolved key, counted in Hits/Misses.
func (s *Store) getResult(k ArtifactKey) (experiments.Result, bool) {
	payload, ok, corrupt := s.readEntry(k)
	if ok {
		res, err := decodeResult(payload, k.ID)
		if err == nil {
			s.count(func(st *Stats) { st.Hits++ })
			return res, true
		}
		s.rejectEntry(k)
		corrupt = true
	}
	s.count(func(st *Stats) {
		st.Misses++
		if corrupt {
			st.Corrupt++
		}
	})
	return experiments.Result{}, false
}

// decodeResult parses a whole-result payload and vets that it is a
// successful result for the expected experiment.
func decodeResult(payload []byte, id string) (experiments.Result, error) {
	results, err := experiments.DecodeJSON(bytes.NewReader(payload))
	if err != nil {
		return experiments.Result{}, err
	}
	if len(results) != 1 {
		return experiments.Result{}, fmt.Errorf("cache: entry holds %d results, want 1", len(results))
	}
	r := results[0]
	if r.ID != id || r.Err != nil || r.Table == nil {
		return experiments.Result{}, fmt.Errorf("cache: entry is not a successful %s result", id)
	}
	return r, nil
}

// Put implements experiments.Cache: it stores a successful result
// atomically (temp file + rename) and then enforces the size cap.
func (s *Store) Put(id string, r experiments.Result) error {
	if r.Err != nil || r.Table == nil {
		return fmt.Errorf("cache: refusing to store failed result %s", id)
	}
	r.ID = id
	var encoded bytes.Buffer
	if err := experiments.EncodeJSON(&encoded, []experiments.Result{r}); err != nil {
		return err
	}
	return s.write(s.keyFor(id, ""), encoded.Bytes())
}

// GetParam implements experiments.ParamCache: it returns the stored
// whole result of one experiment family at one canonical parameter
// point. The empty point is the family's fixed experiment — it
// delegates to Get, so a parameterized request at the default point
// and a fixed request share one entry.
func (s *Store) GetParam(id, params string) (experiments.Result, bool) {
	if params == "" {
		return s.Get(id)
	}
	return s.getResult(s.keyFor(id, params))
}

// PutParam implements experiments.ParamCache, storing one parameter
// point's whole result; the empty point delegates to Put.
func (s *Store) PutParam(id, params string, r experiments.Result) error {
	if params == "" {
		return s.Put(id, r)
	}
	if r.Err != nil || r.Table == nil {
		return fmt.Errorf("cache: refusing to store failed result %s?%s", id, params)
	}
	r.ID = id
	var encoded bytes.Buffer
	if err := experiments.EncodeJSON(&encoded, []experiments.Result{r}); err != nil {
		return err
	}
	return s.write(s.keyFor(id, params), encoded.Bytes())
}

// write stores one payload under its key — the single code path Put
// and PutParam share: compact, checksum, envelope, atomic write, evict.
func (s *Store) write(k ArtifactKey, encoded []byte) error {
	// Compact before checksumming: json.Marshal compacts RawMessage
	// fields when writing the envelope, and the checksum must cover
	// the payload bytes as they appear on disk.
	var payload bytes.Buffer
	if err := json.Compact(&payload, encoded); err != nil {
		return err
	}
	sum := sha256.Sum256(payload.Bytes())
	raw, err := json.Marshal(envelope{
		Schema:  schemaVersion,
		Key:     k,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload.Bytes(),
	})
	if err != nil {
		return err
	}
	if err := writeAtomic(s.dir, s.path(k), raw); err != nil {
		return err
	}
	return s.evict()
}

// writeAtomic writes data to path via a temp file in dir and a rename,
// so readers only ever observe complete entries.
func writeAtomic(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// tempMaxAge is how old a .tmp-* file must be before it is presumed
// orphaned (a writer died between CreateTemp and Rename) and swept.
// Live writers hold their temp file for milliseconds, so an hour is
// safely conservative even across processes sharing the directory.
const tempMaxAge = time.Hour

// sweepStaleTemps removes orphaned temp files so crashed writes
// cannot grow the directory past the byte cap forever. Called on
// Open; eviction passes do the same check inline on their single
// directory scan. Best-effort.
func sweepStaleTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tempMaxAge)
	for _, de := range entries {
		removeIfStaleTemp(dir, de, cutoff)
	}
}

// removeIfStaleTemp deletes de when it is a temp file older than
// cutoff, reporting whether de was a temp file (stale or not).
func removeIfStaleTemp(dir string, de os.DirEntry, cutoff time.Time) bool {
	if de.IsDir() || !strings.HasPrefix(de.Name(), ".tmp-") {
		return false
	}
	if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
		os.Remove(filepath.Join(dir, de.Name()))
	}
	return true
}

// evict removes least-recently-used entries until the store fits the
// byte cap, sweeping stale temp files on the same directory scan.
// Get refreshes mtimes, so mtime order is use order. Every .json file
// in the directory counts toward the cap, so entries no lookup ever
// reaches again (an older key shape) simply age out.
func (s *Store) evict() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var (
		files  []entry
		total  int64
		cutoff = time.Now().Add(-tempMaxAge)
	)
	for _, de := range entries {
		if removeIfStaleTemp(s.dir, de, cutoff) {
			continue
		}
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with another evictor
		}
		files = append(files, entry{filepath.Join(s.dir, de.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= s.maxBytes {
		return nil
	}
	sort.Slice(files, func(a, b int) bool { return files[a].mtime.Before(files[b].mtime) })
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			s.count(func(st *Stats) { st.Evicted++ })
		}
	}
	return nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
