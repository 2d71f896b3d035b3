package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
)

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/stats Content-Type = %q", ct)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/stats body: %v", err)
	}
	return st
}

// TestStatsCountersAndCache: /stats reports request totals, cache
// hit/miss counters, and per-experiment latency after real traffic —
// a cold request (miss + store) followed by a warm one (hit).
func TestStatsCountersAndCache(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 10*time.Millisecond, &executions),
		Cache:    store,
	}))
	defer ts.Close()

	if st := getStats(t, ts); st.Requests != 0 || len(st.Experiments) != 0 {
		t.Fatalf("fresh server stats = %+v", st)
	}
	for i := 0; i < 2; i++ { // cold then warm
		if status, _ := get(t, ts, "/experiments/E1"); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}

	st := getStats(t, ts)
	if st.RegistryVersion != experiments.RegistryVersion {
		t.Errorf("registry_version = %q", st.RegistryVersion)
	}
	if st.Requests != 2 {
		t.Errorf("requests = %d, want 2", st.Requests)
	}
	if st.InFlight != 0 {
		t.Errorf("in_flight at rest = %d", st.InFlight)
	}
	if st.Cache == nil {
		t.Fatal("cache counters missing despite a cache-backed server")
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache = %+v, want 1 hit / 1 miss", st.Cache)
	}
	if st.Cache.HitRate != 0.5 {
		t.Errorf("hit_rate = %v, want 0.5", st.Cache.HitRate)
	}
	e1, ok := st.Experiments["E1"]
	if !ok {
		t.Fatalf("experiments = %+v, want an E1 entry", st.Experiments)
	}
	if e1.Count != 2 || e1.Errors != 0 {
		t.Errorf("E1 = %+v, want count 2, errors 0", e1)
	}
	// The cold request ran a 10ms runner, so the latency counters
	// must have registered real time.
	if e1.TotalMillis <= 0 || e1.MaxMillis <= 0 || e1.LastMillis < 0 {
		t.Errorf("E1 latency = %+v, want positive totals", e1)
	}
	if e1.MaxMillis > e1.TotalMillis {
		t.Errorf("E1 max %v exceeds total %v", e1.MaxMillis, e1.TotalMillis)
	}
	// The histogram block rides alongside the legacy count/total/max
	// fields and must agree with them.
	if e1.Histogram == nil {
		t.Fatal("E1 histogram block missing")
	}
	if e1.Histogram.Count != e1.Count {
		t.Errorf("histogram count %d != field count %d", e1.Histogram.Count, e1.Count)
	}
	if e1.Histogram.P50Millis <= 0 || e1.Histogram.P95Millis < e1.Histogram.P50Millis ||
		e1.Histogram.P99Millis < e1.Histogram.P95Millis {
		t.Errorf("histogram quantiles out of order: %+v", e1.Histogram)
	}
	if len(e1.Histogram.Buckets) == 0 {
		t.Errorf("histogram has no buckets: %+v", e1.Histogram)
	}
	// The whole-experiment endpoint saw both requests; the param
	// endpoint saw none and is omitted rather than reported empty.
	ep, ok := st.Endpoints[EndpointExperiment]
	if !ok {
		t.Fatalf("endpoints = %+v, want an %q entry", st.Endpoints, EndpointExperiment)
	}
	if ep.Count != 2 || ep.P50Millis <= 0 || ep.P95Millis <= 0 || ep.P99Millis <= 0 {
		t.Errorf("experiment endpoint = %+v, want count 2 and positive quantiles", ep)
	}
	if _, ok := st.Endpoints[EndpointParam]; ok {
		t.Errorf("param endpoint reported without param traffic: %+v", st.Endpoints)
	}
}

// TestStatsErrorsCounted: a failing experiment increments its error
// counter alongside its request count.
func TestStatsErrorsCounted(t *testing.T) {
	reg := map[string]experiments.Runner{
		"E1": func() (*experiments.Table, error) { return nil, errors.New("defect") },
	}
	ts := httptest.NewServer(New(Options{Registry: reg}))
	defer ts.Close()
	if status, _ := get(t, ts, "/experiments/E1"); status != http.StatusInternalServerError {
		t.Fatalf("status = %d", status)
	}
	st := getStats(t, ts)
	if e1 := st.Experiments["E1"]; e1.Count != 1 || e1.Errors != 1 {
		t.Errorf("E1 = %+v, want count 1, errors 1", e1)
	}
	if st.Cache != nil {
		t.Errorf("cache counters = %+v on a cacheless server", st.Cache)
	}
}

// TestStatsInFlight: while an experiment executes, /stats reports it
// in flight — the load signal the shard coordinator ranks workers by.
func TestStatsInFlight(t *testing.T) {
	var executions atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 500*time.Millisecond, &executions),
	}))
	defer ts.Close()
	// The request runs in a goroutine, so failures are reported back
	// over the channel rather than t.Fatal-ing off the test goroutine.
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/experiments/E1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the request enter execution
	if st := getStats(t, ts); st.InFlight != 1 {
		t.Errorf("in_flight during execution = %d, want 1", st.InFlight)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if st := getStats(t, ts); st.InFlight != 0 {
		t.Errorf("in_flight after completion = %d, want 0", st.InFlight)
	}
}

// TestBackendReplacesEngine: with Options.Backend set, the serving
// path renders the backend's result and the in-process registry never
// executes — the seam figuresd -peers mounts a shard coordinator on.
func TestBackendReplacesEngine(t *testing.T) {
	var executions atomic.Int64
	var backendCalls atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 0, &executions),
		Backend: func(ctx context.Context, id string) (experiments.Result, error) {
			backendCalls.Add(1)
			return experiments.Result{ID: id, Table: &experiments.Table{
				ID:      id,
				Title:   "from the fleet",
				Headers: []string{"h"},
				Rows:    [][]string{{"v"}},
			}}, nil
		},
	}))
	defer ts.Close()
	status, body := get(t, ts, "/experiments/E1")
	if status != http.StatusOK || !strings.Contains(body, "from the fleet") {
		t.Fatalf("backend-served response = %d %q", status, body)
	}
	if n := executions.Load(); n != 0 {
		t.Errorf("local registry executed %d times despite a backend", n)
	}
	if n := backendCalls.Load(); n != 1 {
		t.Errorf("backend called %d times, want 1", n)
	}
	// Unknown ids are still rejected by the registry before the
	// backend is consulted.
	if status, _ := get(t, ts, "/experiments/E99"); status != http.StatusNotFound {
		t.Errorf("unknown id with backend: status %d", status)
	}
	if n := backendCalls.Load(); n != 1 {
		t.Errorf("backend consulted for an unknown id")
	}
}
