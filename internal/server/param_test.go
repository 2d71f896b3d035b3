package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
)

// paramServer stands up a server over one synthetic parameterized
// family (integers x, default 1, and eps, default 5) and returns it
// with the point execution counter. The point x=9 is slow: it sleeps
// past any test timeout.
func paramServer(t *testing.T, opts Options) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	execs := new(atomic.Int64)
	fam := experiments.Family{
		ID:  "P1",
		Doc: "synthetic parameterized family",
		Params: []experiments.ParamSpec{
			{Name: "x", Default: "1", Min: 0, Max: 9, Doc: "the point"},
			{Name: "eps", Default: "5", Min: 0, Max: 10, Doc: "a second knob"},
		},
		Run: func(ps experiments.ParamSet) (*experiments.Table, error) {
			execs.Add(1)
			if ps.Int("x") == 9 {
				time.Sleep(10 * time.Second)
			}
			return &experiments.Table{
				ID:      "P1",
				Title:   fmt.Sprintf("point x=%d eps=%d", ps.Int("x"), ps.Int("eps")),
				Headers: []string{"x"},
				Rows:    [][]string{{fmt.Sprint(ps.Int("x"))}},
			}, nil
		},
	}
	defaults, err := experiments.DefaultParams(fam)
	if err != nil {
		t.Fatal(err)
	}
	opts.Registry = map[string]experiments.Runner{
		"P1": func() (*experiments.Table, error) { return fam.Run(defaults) },
	}
	opts.Families = map[string]experiments.Family{"P1": fam}
	ts := httptest.NewServer(New(opts))
	t.Cleanup(ts.Close)
	return ts, execs
}

// TestParamEndpointOrderIndependent: ?x=3&eps=2 and ?eps=2&x=3
// are one point — identical bytes and a single execution (the second
// request is a cache hit under the canonical identity).
func TestParamEndpointOrderIndependent(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, execs := paramServer(t, Options{Cache: store})
	code1, body1 := get(t, ts, "/experiments/P1?x=3&eps=2")
	code2, body2 := get(t, ts, "/experiments/P1?eps=2&x=3")
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("codes = %d, %d", code1, code2)
	}
	if body1 != body2 {
		t.Fatalf("parameter order changed the bytes:\n%s\nvs\n%s", body1, body2)
	}
	if !strings.Contains(body1, "point x=3 eps=2") {
		t.Fatalf("body = %q", body1)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1 (reordered request must hit the cache)", n)
	}
}

// TestParamEndpointDefaultAliasesFixed: spelling out the defaults
// serves the fixed experiment's identity — bytes equal to the bare
// request, one execution total.
func TestParamEndpointDefaultAliasesFixed(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, execs := paramServer(t, Options{Cache: store})
	_, fixed := get(t, ts, "/experiments/P1")
	_, spelled := get(t, ts, "/experiments/P1?x=1&eps=5")
	if fixed != spelled {
		t.Fatalf("spelled-out defaults differ from the fixed experiment:\n%s\nvs\n%s", fixed, spelled)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1 (default point shares the fixed cache entry)", n)
	}
}

// TestParamEndpointValidation: a bad point is a field-level 400, not a
// 500 and not an execution.
func TestParamEndpointValidation(t *testing.T) {
	ts, execs := paramServer(t, Options{})
	cases := []struct {
		path    string
		wantSub string
	}{
		{"/experiments/P1?q=1", `unknown parameter "q"`},
		{"/experiments/P1?x=11", `parameter "x"`},
		{"/experiments/P1?x=1.5", `parameter "x"`},
		{"/experiments/P1?eps=11", `parameter "eps"`},
		{"/experiments/P1?x=1&x=2", `parameter "x"`},
	}
	for _, tc := range cases {
		code, body := get(t, ts, tc.path)
		if code != http.StatusBadRequest || !strings.Contains(body, tc.wantSub) {
			t.Errorf("GET %s = %d %q, want 400 naming %q", tc.path, code, body, tc.wantSub)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Errorf("invalid requests executed %d times", n)
	}
}

// TestParamOnUnparameterizedExperiment: parameters against an
// experiment with no family are a client error.
func TestParamOnUnparameterizedExperiment(t *testing.T) {
	var execs atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 0, &execs),
	}))
	defer ts.Close()
	code, body := get(t, ts, "/experiments/E1?k=3")
	if code != http.StatusBadRequest || !strings.Contains(body, "takes no parameters") {
		t.Fatalf("GET /experiments/E1?k=3 = %d %q", code, body)
	}
}

// TestParamEndpointStats: non-default points count under the "param"
// endpoint label; default and bare requests stay under "experiment".
func TestParamEndpointStats(t *testing.T) {
	ts, _ := paramServer(t, Options{})
	get(t, ts, "/experiments/P1?x=2")
	get(t, ts, "/experiments/P1")
	code, body := get(t, ts, "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Endpoints == nil {
		t.Fatal("no endpoint section in /stats")
	}
	if _, ok := st.Endpoints[EndpointParam]; !ok {
		t.Fatalf("endpoints = %v, want a %q entry", st.Endpoints, EndpointParam)
	}
}

// TestIndexListsFamilies: the index advertises each family's schema —
// the discoverable surface of the parameterized API.
func TestIndexListsFamilies(t *testing.T) {
	ts, _ := paramServer(t, Options{})
	code, body := get(t, ts, "/experiments")
	if code != http.StatusOK {
		t.Fatalf("/experiments = %d", code)
	}
	var idx struct {
		Families map[string]struct {
			Doc          string `json:"doc"`
			SpaceVersion string `json:"space_version"`
			Params       []struct {
				Name    string  `json:"name"`
				Kind    string  `json:"kind"`
				Default string  `json:"default"`
				Min     float64 `json:"min"`
				Max     float64 `json:"max"`
			} `json:"params"`
		} `json:"families"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatal(err)
	}
	fam, ok := idx.Families["P1"]
	if !ok {
		t.Fatalf("families = %v, want P1", idx.Families)
	}
	if len(fam.Params) != 2 || fam.Params[0].Name != "eps" || fam.Params[1].Name != "x" {
		t.Fatalf("params = %+v, want eps then x (sorted)", fam.Params)
	}
	if fam.Params[0].Kind != "int" || fam.Params[1].Kind != "int" {
		t.Fatalf("kinds = %+v", fam.Params)
	}
	if fam.SpaceVersion == "" {
		t.Fatal("family has no space version in the index")
	}
}

// TestBackendRoutesParamPoints: with a Backend configured (the -peers
// deployment), non-default points go through it, not the local engine.
func TestBackendRoutesParamPoints(t *testing.T) {
	var backendCalls atomic.Int64
	var backendParams string
	ts, execs := paramServer(t, Options{
		Backend: func(ctx context.Context, id string, ps experiments.ParamSet) (experiments.Result, error) {
			backendCalls.Add(1)
			backendParams = ps.Canonical()
			return experiments.Result{ID: id, Table: &experiments.Table{ID: id, Title: "from backend"}}, nil
		},
	})
	code, body := get(t, ts, "/experiments/P1?x=4")
	if code != http.StatusOK || !strings.Contains(body, "from backend") {
		t.Fatalf("GET = %d %q", code, body)
	}
	if backendCalls.Load() != 1 || execs.Load() != 0 {
		t.Fatalf("backend calls = %d, local executions = %d", backendCalls.Load(), execs.Load())
	}
	if backendParams != "eps=5,x=4" {
		t.Fatalf("backend saw params %q", backendParams)
	}
}

// TestParamPointCooldown: a timed-out non-default point serves its
// recorded failure inside the cooldown window without re-running,
// under every spelling of the point, and the window is the point's
// alone: the fixed experiment still runs.
func TestParamPointCooldown(t *testing.T) {
	ts, execs := paramServer(t, Options{Timeout: 300 * time.Millisecond})
	for _, path := range []string{"/experiments/P1?x=9", "/experiments/P1?x=9", "/experiments/P1?eps=5&x=9"} {
		status, body := get(t, ts, path)
		if status != http.StatusInternalServerError || !strings.Contains(body, "timed out") {
			t.Fatalf("GET %s = %d %q, want 500 with the timeout error", path, status, body)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1 (retries inside the cooldown must not re-run the point)", n)
	}
	if status, body := get(t, ts, "/experiments/P1"); status != http.StatusOK || !strings.Contains(body, "point x=1") {
		t.Fatalf("fixed experiment during the point's cooldown = %d %q", status, body)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("executions = %d, want 2 (the fixed experiment is not cooled down)", n)
	}
}

// TestE15PointOutsideSchemaIs400: the choice task's inputs are 0..1 at
// every size, so an input of 2 is a field-level 400 that never runs —
// not a 500 from Algorithm 2 finding no path for it.
func TestE15PointOutsideSchemaIs400(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	for _, path := range []string{"/experiments/E15?c=3&i1=2", "/experiments/E15?c=3&i0=2"} {
		status, body := get(t, ts, path)
		if status != http.StatusBadRequest || !strings.Contains(body, "out of range") {
			t.Errorf("GET %s = %d %q, want 400 out of range", path, status, body)
		}
	}
	if st := getStats(t, ts); st.Requests != 0 {
		t.Errorf("rejected points counted %d executions", st.Requests)
	}
}

// TestPrefixSliceRejections: the retired prefix-slice spelling is
// an unknown parameter like any other — a 400 from the family's
// parameter validation, never the whole table — and neither /stats
// nor /metrics carries a slice endpoint or slice cache counters.
func TestPrefixSliceRejections(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	execs := new(atomic.Int64)
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E2", 0, execs),
		Families: map[string]experiments.Family{"E2": experiments.Families()["E2"]},
		Cache:    store,
	}))
	t.Cleanup(ts.Close)

	status, body := get(t, ts, "/experiments/E2?prefixes=-")
	if status != http.StatusBadRequest || !strings.Contains(body, `unknown parameter "prefixes"`) {
		t.Fatalf("?prefixes=- = %d %q, want 400 unknown parameter", status, body)
	}
	if status, _ := get(t, ts, "/experiments/E2?prefixes=-&format=json"); status != http.StatusBadRequest {
		t.Fatalf("?prefixes=-&format=json = %d, want 400", status)
	}
	if status, _ := get(t, ts, "/experiments/E2"); status != http.StatusOK {
		t.Fatalf("plain E2 = %d", status)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("E2 executed %d times, want once (the rejected requests run nothing)", n)
	}

	_, stats := get(t, ts, "/stats")
	_, metrics := get(t, ts, "/metrics")
	var st StatsResponse
	if err := json.Unmarshal([]byte(stats), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil {
		t.Fatal("/stats has no cache section")
	}
	if _, ok := st.Endpoints["slice"]; ok {
		t.Errorf("/stats endpoints carry a slice entry: %+v", st.Endpoints)
	}
	if strings.Contains(stats, "slice") {
		t.Errorf("/stats mentions slices:\n%s", stats)
	}
	if strings.Contains(metrics, "slice") {
		t.Errorf("/metrics mentions slices:\n%s", metrics)
	}
}
