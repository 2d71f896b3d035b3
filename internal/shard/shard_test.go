package shard

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// syntheticRegistry builds a registry of deterministic experiments
// (distinct tables per id) and an execution counter shared by all of
// its runners.
func syntheticRegistry(ids ...string) (map[string]experiments.Runner, *atomic.Int64) {
	executions := new(atomic.Int64)
	reg := make(map[string]experiments.Runner, len(ids))
	for _, id := range ids {
		id := id
		reg[id] = func() (*experiments.Table, error) {
			executions.Add(1)
			return &experiments.Table{
				ID:      id,
				Title:   "synthetic " + id,
				Headers: []string{"k", "v"},
				Rows:    [][]string{{id, "value-of-" + id}},
				Notes:   []string{"note for " + id},
			}, nil
		}
	}
	return reg, executions
}

// newWorker stands up one figuresd-equivalent worker over reg.
func newWorker(t *testing.T, reg map[string]experiments.Runner) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Options{Registry: reg}))
	t.Cleanup(ts.Close)
	return ts
}

// encodeAll renders results in every format, concatenated — a single
// byte string to compare sharded output against local output with.
func encodeAll(t *testing.T, results []experiments.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, format := range []string{"text", "json", "csv"} {
		encode, err := experiments.LookupEncoder(format)
		if err != nil {
			t.Fatal(err)
		}
		if err := encode(&buf, results); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// localBaseline runs ids through the in-process engine on a fresh
// (uncounted) copy of the synthetic registry.
func localBaseline(t *testing.T, ids []string) []byte {
	t.Helper()
	reg, _ := syntheticRegistry(ids...)
	results, err := experiments.Run(context.Background(), experiments.Options{
		IDs: ids, Jobs: 1, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return encodeAll(t, results)
}

// deadAddr returns a host:port that is guaranteed closed: it was just
// listened on and released.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestShardedRunByteIdentical is the coordinator's core guarantee: a
// run fanned out over a two-worker fleet merges to bytes identical to
// a serial local run, in every format, with nothing executed locally.
func TestShardedRunByteIdentical(t *testing.T) {
	ids := []string{"E1", "E2", "E3", "E4", "E5", "E6"}
	fleetReg, fleetExecs := syntheticRegistry(ids...)
	w1 := newWorker(t, fleetReg)
	w2 := newWorker(t, fleetReg)

	localReg, localExecs := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), localBaseline(t, ids); !bytes.Equal(got, want) {
		t.Errorf("sharded output differs from local run:\n%s\nvs\n%s", got, want)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("healthy fleet, but %d experiments ran locally", n)
	}
	if n := fleetExecs.Load(); n != int64(len(ids)) {
		t.Errorf("fleet executed %d runners, want %d", n, len(ids))
	}
	st := coord.Stats()
	if st.WorkersHealthy != 2 || st.Remote != int64(len(ids)) || st.Local != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Per-worker fetch accounting: every attempt landed on some worker,
	// none failed, and each worker's latency histogram saw exactly its
	// fetches.
	if len(st.Workers) != 2 {
		t.Fatalf("worker stats = %+v, want 2 entries", st.Workers)
	}
	var fetches int64
	for _, w := range st.Workers {
		fetches += w.Fetches
		if w.Errors != 0 {
			t.Errorf("worker %s: %d fetch errors on a healthy fleet", w.Addr, w.Errors)
		}
		if w.Latency.Count != w.Fetches {
			t.Errorf("worker %s: histogram count %d != fetches %d", w.Addr, w.Latency.Count, w.Fetches)
		}
		if w.Fetches > 0 && w.Latency.P95Millis < w.Latency.P50Millis {
			t.Errorf("worker %s: quantiles out of order: %+v", w.Addr, w.Latency)
		}
	}
	if fetches != int64(len(ids)) {
		t.Errorf("fleet fetch total = %d, want %d", fetches, len(ids))
	}
}

// TestServerErrorFailsOver: a worker that answers 500 to every
// experiment request loses each experiment to the healthy worker, and
// the merged output is unchanged.
func TestServerErrorFailsOver(t *testing.T) {
	ids := []string{"E1", "E2", "E3"}
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		http.Error(w, "internal meltdown", http.StatusInternalServerError)
	}))
	defer broken.Close()
	fleetReg, fleetExecs := syntheticRegistry(ids...)
	healthy := newWorker(t, fleetReg)

	localReg, localExecs := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{broken.URL, healthy.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), localBaseline(t, ids); !bytes.Equal(got, want) {
		t.Errorf("output differs after 500-failover:\n%s\nvs\n%s", got, want)
	}
	if n := fleetExecs.Load(); n != int64(len(ids)) {
		t.Errorf("healthy worker executed %d, want %d", n, len(ids))
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d experiments fell back locally despite a healthy worker", n)
	}
	st := coord.Stats()
	if st.Failovers == 0 {
		t.Errorf("stats = %+v, want failovers > 0", st)
	}
	// A 500 is an HTTP-level failure, not a dead worker: the broken
	// worker must still count as healthy (it answered).
	if st.WorkersHealthy != 2 {
		t.Errorf("healthy = %d, want 2 (500s must not mark a worker dead)", st.WorkersHealthy)
	}
	// The broken worker's failures are on its record — fetches,
	// errors, and latency observations alike — so a fast-failing
	// worker is visibly failing, not suspiciously idle.
	for _, w := range st.Workers {
		if w.Addr != broken.URL {
			continue
		}
		if w.Fetches == 0 || w.Errors != w.Fetches || w.Latency.Count != w.Fetches {
			t.Errorf("broken worker record = %+v, want every fetch errored and recorded", w)
		}
	}
}

// TestGarbageJSONFailsOver: a worker that answers 200 with an
// undecodable body is failed over exactly like a 500.
func TestGarbageJSONFailsOver(t *testing.T) {
	ids := []string{"E1", "E2"}
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		fmt.Fprint(w, `{"this is": ["not a result slice`)
	}))
	defer garbage.Close()
	fleetReg, _ := syntheticRegistry(ids...)
	healthy := newWorker(t, fleetReg)

	localReg, localExecs := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{garbage.URL, healthy.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), localBaseline(t, ids); !bytes.Equal(got, want) {
		t.Errorf("output differs after garbage-JSON failover:\n%s\nvs\n%s", got, want)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d experiments fell back locally despite a healthy worker", n)
	}
}

// TestDeadFleetFallsBackLocal: with every worker unreachable, the run
// degrades to local execution and still produces the exact local
// bytes.
func TestDeadFleetFallsBackLocal(t *testing.T) {
	ids := []string{"E1", "E2", "E3"}
	localReg, localExecs := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{deadAddr(t), deadAddr(t)},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	if st.WorkersHealthy != 0 {
		t.Fatalf("probe marked %d dead workers healthy", st.WorkersHealthy)
	}
	results, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), localBaseline(t, ids); !bytes.Equal(got, want) {
		t.Errorf("local-fallback output differs:\n%s\nvs\n%s", got, want)
	}
	if n := localExecs.Load(); n != int64(len(ids)) {
		t.Errorf("local executions = %d, want %d", n, len(ids))
	}
	st = coord.Stats()
	if st.Remote != 0 || st.Local != int64(len(ids)) {
		t.Errorf("stats = %+v, want all local", st)
	}
}

// TestPrefixFleetWithoutSliceSupport: a fleet whose workers answer
// ?prefixes= with a 400 (as every worker now does) still serves E2:
// the coordinator fetches the experiment whole, never sends a prefix
// range, explores nothing locally and keeps both workers healthy.
func TestPrefixFleetWithoutSliceSupport(t *testing.T) {
	ids := []string{"E2"}
	var mu sync.Mutex
	var queries []string
	fleetReg, fleetExecs := syntheticRegistry(ids...)
	inner := server.New(server.Options{Registry: fleetReg})
	worker := func() *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/experiments/") {
				mu.Lock()
				queries = append(queries, r.URL.RawQuery)
				mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	w1, w2 := worker(), worker()
	if resp, err := http.Get(w1.URL + "/experiments/E2?prefixes=-"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("worker answered ?prefixes=- with %d, want 400", resp.StatusCode)
	}
	mu.Lock()
	queries = nil
	mu.Unlock()

	localReg, localExecs := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), localBaseline(t, ids); !bytes.Equal(got, want) {
		t.Errorf("output differs when fleet lacks slice support:\n%s\nvs\n%s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, q := range queries {
		if strings.Contains(q, "prefixes") {
			t.Errorf("coordinator sent a prefix range: ?%s", q)
		}
	}
	if len(queries) != 1 {
		t.Errorf("experiment fetches = %d (%q), want 1 whole fetch", len(queries), queries)
	}
	st := coord.Stats()
	if st.Remote != 1 || st.Local != 0 || st.PrefixRangesRemote != 0 || st.PrefixRangesLocal != 0 {
		t.Errorf("stats = %+v, want one whole remote fetch and no ranges", st)
	}
	if n := fleetExecs.Load(); n != 1 {
		t.Errorf("fleet executions = %d, want 1", n)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("local executions = %d, want 0", n)
	}
	if st.WorkersHealthy != 2 {
		t.Errorf("healthy = %d, want 2", st.WorkersHealthy)
	}
}

// TestPrefixDeadFleetFallsBackWhole: E2 over an entirely dead fleet
// runs whole through the local engine — one local execution, no
// prefix ranges, bytes unchanged.
func TestPrefixDeadFleetFallsBackWhole(t *testing.T) {
	ids := []string{"E2"}
	localReg, localExecs := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{deadAddr(t), deadAddr(t)},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), localBaseline(t, ids); !bytes.Equal(got, want) {
		t.Errorf("dead-fleet output differs:\n%s\nvs\n%s", got, want)
	}
	st := coord.Stats()
	if st.Remote != 0 || st.Local != 1 || st.PrefixRangesRemote != 0 || st.PrefixRangesLocal != 0 {
		t.Errorf("stats = %+v, want one whole local run and no ranges", st)
	}
	if n := localExecs.Load(); n != 1 {
		t.Errorf("local executions = %d, want 1", n)
	}
}

// TestWorkerKilledMidRun:a worker that dies after the coordinator's
// probe is marked unhealthy on its first transport error and the rest
// of the run flows to the survivor — output unchanged.
func TestWorkerKilledMidRun(t *testing.T) {
	ids := []string{"E1", "E2", "E3", "E4"}
	fleetReg, _ := syntheticRegistry(ids...)
	doomed := newWorker(t, fleetReg)
	survivor := newWorker(t, fleetReg)

	localReg, localExecs := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{doomed.URL, survivor.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats().WorkersHealthy; got != 2 {
		t.Fatalf("healthy before kill = %d", got)
	}
	doomed.CloseClientConnections()
	doomed.Close()

	results, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), localBaseline(t, ids); !bytes.Equal(got, want) {
		t.Errorf("output differs after mid-run kill:\n%s\nvs\n%s", got, want)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d experiments fell back locally despite a survivor", n)
	}
	st := coord.Stats()
	if st.WorkersHealthy != 1 {
		t.Errorf("healthy after kill = %d, want 1 (dead worker must be evicted)", st.WorkersHealthy)
	}
	if st.Remote != int64(len(ids)) {
		t.Errorf("remote = %d, want %d", st.Remote, len(ids))
	}
}

// TestDeterministicFailureReproducedLocally: an experiment that fails
// on the worker (500) and fails locally too merges as the same failed
// Result a pure local run produces — byte-identical even for errors.
func TestDeterministicFailureReproducedLocally(t *testing.T) {
	reg := map[string]experiments.Runner{
		"E1": func() (*experiments.Table, error) {
			return nil, fmt.Errorf("deterministic defect")
		},
	}
	w := newWorker(t, reg)
	coord, err := New(Options{
		Workers: []string{w.URL},
		Local:   experiments.Options{Registry: reg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), []string{"E1"})
	if err != nil {
		t.Fatal(err)
	}
	local, err := experiments.Run(context.Background(), experiments.Options{
		IDs: []string{"E1"}, Jobs: 1, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), encodeAll(t, local); !bytes.Equal(got, want) {
		t.Errorf("failed-experiment bytes differ:\n%s\nvs\n%s", got, want)
	}
	st := coord.Stats()
	if st.Local != 1 {
		t.Errorf("stats = %+v, want the failure re-run locally", st)
	}
}

// TestRunUnknownID mirrors the engine contract: configuration
// mistakes are errors, not failed results.
func TestRunUnknownID(t *testing.T) {
	reg, _ := syntheticRegistry("E1")
	w := newWorker(t, reg)
	coord, err := New(Options{
		Workers: []string{w.URL},
		Local:   experiments.Options{Registry: reg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), []string{"E99"}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// TestNewRejectsEmptyFleet: a coordinator with no workers is a
// configuration mistake (callers run the engine directly instead).
func TestNewRejectsEmptyFleet(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty worker list accepted")
	}
}

// TestRunDefaultsToRegistryOrder: empty ids means the whole local
// registry in index order, matching the engine.
func TestRunDefaultsToRegistryOrder(t *testing.T) {
	ids := []string{"E1", "E2", "E10"} // E2 must sort before E10
	fleetReg, _ := syntheticRegistry(ids...)
	w := newWorker(t, fleetReg)
	localReg, _ := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{w.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range results {
		got = append(got, r.ID)
	}
	if strings.Join(got, ",") != "E1,E2,E10" {
		t.Fatalf("default order = %v", got)
	}
}

// TestPickLeastLoaded pins the selection rule: the healthy untried
// worker with the fewest in-flight requests wins, charged one slot.
func TestPickLeastLoaded(t *testing.T) {
	busy := &worker{base: "http://busy"}
	busy.healthy.Store(true)
	busy.inflight.Store(7) // the coordinator's own outstanding requests
	idle := &worker{base: "http://idle"}
	idle.healthy.Store(true)
	dead := &worker{base: "http://dead"}
	c := &Coordinator{workers: []*worker{busy, idle, dead}, now: time.Now}

	if w := c.pick(nil); w != idle {
		t.Fatalf("pick = %v, want the idle worker", w)
	}
	if n := idle.inflight.Load(); n != 1 {
		t.Fatalf("picked worker charged %d in-flight, want 1", n)
	}
	// With the idle worker already tried, load must route to busy —
	// never to the unhealthy one.
	if w := c.pick(map[*worker]bool{idle: true}); w != busy {
		t.Fatalf("second pick = %v, want the busy worker", w)
	}
	if w := c.pick(map[*worker]bool{idle: true, busy: true}); w != nil {
		t.Fatalf("exhausted pick = %v, want nil", w)
	}
}

// TestProbeSeedsBaselineLoad: a worker busy serving other clients at
// probe time starts deprioritized — its /stats in-flight count is the
// seed the first pick sees.
func TestProbeSeedsBaselineLoad(t *testing.T) {
	reg, _ := syntheticRegistry("E1")
	quiet := newWorker(t, reg)

	// A fake worker whose /stats reports heavy in-flight load.
	loaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprintln(w, "ok")
		case "/stats":
			fmt.Fprint(w, `{"registry_version":"x","in_flight":42,"requests":100,"experiments":{}}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer loaded.Close()

	coord, err := New(Options{
		Workers: []string{loaded.URL, quiet.URL},
		Local:   experiments.Options{Registry: reg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := coord.pick(nil)
	if w == nil || w.base != quiet.URL {
		t.Fatalf("first pick = %+v, want the quiet worker (baseline 42 vs 0)", w)
	}
}

// TestBaselineExpires: the scraped /stats in-flight count describes
// startup, not steady state — once its TTL passes it stops inflating
// the worker's load.
func TestBaselineExpires(t *testing.T) {
	w := &worker{base: "http://w", baseline: 42}
	now := time.Now()
	w.baselineUntil = now.Add(time.Minute)
	if got := w.load(now); got != 42 {
		t.Fatalf("fresh baseline load = %d, want 42", got)
	}
	w.baselineUntil = now.Add(-time.Second)
	if got := w.load(now); got != 0 {
		t.Fatalf("expired baseline load = %d, want 0", got)
	}
}

// fakeClock is an injectable coordinator clock (Options.Now) that
// tests advance manually, so eviction-revival and baseline-expiry
// behavior is asserted without real sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestEvictedWorkerRevives: eviction is not forever — after
// ReviveAfter a live request may re-try the worker, and one success
// restores it to full rotation (the property that lets a figuresd
// -peers front daemon survive worker restarts). The coordinator runs
// on an injected clock: no real sleeps.
func TestEvictedWorkerRevives(t *testing.T) {
	reg, _ := syntheticRegistry("E1")
	w := newWorker(t, reg)
	localReg, _ := syntheticRegistry("E1")
	clk := newFakeClock()
	coord, err := New(Options{
		Workers:     []string{w.URL},
		ReviveAfter: time.Minute,
		Now:         clk.Now,
		Local:       experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wk := coord.workers[0]
	coord.evict(wk)
	if wk.selectable(clk.Now()) {
		t.Fatal("just-evicted worker is selectable")
	}
	if got := coord.pick(nil); got != nil {
		got.inflight.Add(-1)
		t.Fatal("pick returned an evicted worker inside the revive window")
	}
	clk.Advance(time.Minute + time.Second)
	got := coord.pick(nil)
	if got != wk {
		t.Fatal("evicted worker not offered for revival after ReviveAfter")
	}
	got.inflight.Add(-1)
	// A real request through the revival path restores full health.
	results, err := coord.Run(context.Background(), []string{"E1"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("revival run failed: %v", results[0].Err)
	}
	st := coord.Stats()
	if st.WorkersHealthy != 1 || st.Remote != 1 {
		t.Fatalf("stats after revival = %+v, want the worker healthy and serving", st)
	}
}

// TestFetchTimeoutDoesNotKillWorker: a single slow experiment hits
// the per-request timeout and fails over, but the worker stays
// healthy — slow is not dead.
func TestFetchTimeoutDoesNotKillWorker(t *testing.T) {
	slowReg := map[string]experiments.Runner{
		"E1": func() (*experiments.Table, error) {
			time.Sleep(2 * time.Second)
			return &experiments.Table{ID: "E1", Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
	}
	// The worker's own execution timeout is shorter than the runner so
	// its handler (which test cleanup waits on) returns promptly; the
	// coordinator's request timeout still fires first.
	slow := httptest.NewServer(server.New(server.Options{
		Registry: slowReg,
		Timeout:  500 * time.Millisecond,
	}))
	defer slow.Close()
	localReg, localExecs := syntheticRegistry("E1")
	coord, err := New(Options{
		Workers:        []string{slow.URL},
		RequestTimeout: 200 * time.Millisecond,
		Local:          experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), []string{"E1"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("result = %+v, want the local fallback's success", results[0])
	}
	if n := localExecs.Load(); n != 1 {
		t.Fatalf("local executions = %d, want 1 (timeout falls back)", n)
	}
	st := coord.Stats()
	if st.WorkersHealthy != 1 {
		t.Fatalf("healthy = %d, want 1 (a timeout must not mark the worker dead)", st.WorkersHealthy)
	}
}

// TestVersionSkewedWorkerRejected: a worker on a different experiment
// generation answers 200 with decodable bytes from the wrong
// registry; both defenses must hold — the probe's /stats version
// check starts it evicted, and the per-response header check fails
// any fetch that reaches it anyway — so the run flows to the
// same-generation worker and the bytes stay byte-identical.
func TestVersionSkewedWorkerRejected(t *testing.T) {
	ids := []string{"E1", "E2"}
	reg, _ := syntheticRegistry(ids...)
	current := newWorker(t, reg)

	// A worker from another generation: valid table responses, but
	// /stats and the response header advertise a different registry.
	skewReg, skewExecs := syntheticRegistry(ids...)
	skewInner := server.New(server.Options{Registry: skewReg})
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stats" {
			fmt.Fprint(w, `{"registry_version":"other-gen/v9","in_flight":0,"requests":0,"experiments":{}}`)
			return
		}
		rec := httptest.NewRecorder()
		skewInner.ServeHTTP(rec, r)
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set(server.RegistryVersionHeader, "other-gen/v9")
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer skewed.Close()

	localReg, localExecs := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{skewed.URL, current.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats().WorkersHealthy; got != 1 {
		t.Fatalf("healthy after probe = %d, want 1 (skewed worker must start evicted)", got)
	}
	results, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), localBaseline(t, ids); !bytes.Equal(got, want) {
		t.Errorf("output differs with a version-skewed worker in the fleet:\n%s\nvs\n%s", got, want)
	}
	if n := skewExecs.Load(); n != 0 {
		t.Errorf("skewed worker executed %d experiments", n)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d experiments fell back locally despite a current worker", n)
	}

	// The header check alone must also reject: force a fetch at the
	// skewed worker and watch the attempt fail.
	wk := coord.workers[0]
	if _, err := coord.fetch(context.Background(), wk, "E1", experiments.ParamSet{}); err == nil {
		t.Fatal("fetch from a version-skewed worker succeeded")
	}
}

// memCache is a minimal experiments.Cache for coordinator tests.
type memCache struct {
	mu sync.Mutex
	m  map[string]experiments.Result
}

func newMemCache() *memCache { return &memCache{m: make(map[string]experiments.Result)} }

func (c *memCache) Get(id string) (experiments.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[id]
	return r, ok
}

func (c *memCache) Put(id string, r experiments.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[id] = r
	return nil
}

// TestWarmFrontCacheHit: with a front cache, the coordinator consults
// its own store before dispatching — a warm result is served without
// a fetch — and a remote success warms that store for the next run.
func TestWarmFrontCacheHit(t *testing.T) {
	ids := []string{"E1", "E2"}
	reg1, execs1 := syntheticRegistry(ids...)
	reg2, execs2 := syntheticRegistry(ids...)
	w1, w2 := newWorker(t, reg1), newWorker(t, reg2)
	localReg, localExecs := syntheticRegistry(ids...)
	cache := newMemCache()
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1, Cache: cache},
	})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	fleetCold := execs1.Load() + execs2.Load()
	if fleetCold != int64(len(ids)) {
		t.Fatalf("cold run executed %d experiments remotely, want %d", fleetCold, len(ids))
	}
	warm, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if n := execs1.Load() + execs2.Load(); n != fleetCold {
		t.Errorf("warm run executed %d more experiments on the fleet", n-fleetCold)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("warm run executed %d experiments locally", n)
	}
	for _, r := range warm {
		if !r.Cached {
			t.Errorf("warm result %s not marked cached", r.ID)
		}
	}
	if got, want := encodeAll(t, warm), encodeAll(t, cold); !bytes.Equal(got, want) {
		t.Errorf("warm bytes differ from cold:\n%s\nvs\n%s", got, want)
	}
	if st := coord.Stats(); st.Remote != int64(len(ids)) {
		t.Errorf("stats = %+v, want exactly the cold run's fetches", st)
	}
}
