package shard

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/server"
)

// paramFixture builds one synthetic parameterized family (integer
// parameter x, default 1) plus its fixed-point registry entry and an
// execution counter.
func paramFixture(id string) (map[string]experiments.Runner, map[string]experiments.Family, *atomic.Int64) {
	execs := new(atomic.Int64)
	fam := experiments.Family{
		ID:  id,
		Doc: "synthetic parameterized family",
		Params: []experiments.ParamSpec{
			{Name: "x", Default: "1", Min: 0, Max: 9, Doc: "the point"},
		},
		Run: func(ps experiments.ParamSet) (*experiments.Table, error) {
			x := ps.Int("x")
			execs.Add(1)
			return &experiments.Table{
				ID:      id,
				Title:   fmt.Sprintf("point x=%d", x),
				Headers: []string{"x"},
				Rows:    [][]string{{fmt.Sprint(x)}},
			}, nil
		},
	}
	defaults, err := experiments.DefaultParams(fam)
	if err != nil {
		panic(err)
	}
	reg := map[string]experiments.Runner{
		id: func() (*experiments.Table, error) { return fam.Run(defaults) },
	}
	return reg, map[string]experiments.Family{id: fam}, execs
}

// newParamWorker stands up a worker serving the synthetic family's
// points (and its fixed default).
func newParamWorker(t *testing.T, id string) (addr string, execs *atomic.Int64) {
	t.Helper()
	reg, fams, execs := paramFixture(id)
	ts := httptest.NewServer(server.New(server.Options{Registry: reg, Families: fams}))
	t.Cleanup(ts.Close)
	return ts.URL, execs
}

// paramPoint parses "x=N" against the fixture family.
func paramPoint(t *testing.T, fams map[string]experiments.Family, id, list string) experiments.ParamSet {
	t.Helper()
	ps, err := experiments.ParseParamList(fams[id], list)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestRunParamDefaultPointAliasesFixed: the zero ParamSet is the fixed
// experiment — remote fetch, whole-experiment counters, no family
// machinery.
func TestRunParamDefaultPointAliasesFixed(t *testing.T) {
	const id = "E1"
	w, fleetExecs := newParamWorker(t, id)
	localReg, _, localExecs := paramFixture(id)
	coord, err := New(Options{
		Workers: []string{w},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.RunOne(context.Background(), id, experiments.ParamSet{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Table == nil || res.Table.Title != "point x=1" {
		t.Fatalf("default point result = %+v", res)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d local executions with a healthy fleet", n)
	}
	if fleetExecs.Load() == 0 {
		t.Error("fleet executed nothing")
	}
	if st := coord.Stats(); st.Remote != 1 {
		t.Errorf("stats = %+v, want one remote whole fetch", st)
	}
}

// TestRunParamWholeFetchAndFrontCache: a non-default point of a
// family is fetched whole from a worker, stored in the
// coordinator's front cache under id+params, and served from there on
// the second call without touching the fleet.
func TestRunParamWholeFetchAndFrontCache(t *testing.T) {
	const id = "E1"
	w, fleetExecs := newParamWorker(t, id)
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	localReg, localFams, localExecs := paramFixture(id)
	coord, err := New(Options{
		Workers: []string{w},
		Local:   experiments.Options{Registry: localReg, Jobs: 1, Cache: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := paramPoint(t, localFams, id, "x=7")
	res, err := coord.RunOne(context.Background(), id, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Table == nil || res.Table.Title != "point x=7" {
		t.Fatalf("point result = %+v", res)
	}
	if res.Cached {
		t.Error("cold point reported cached")
	}
	fetched := fleetExecs.Load()
	if fetched == 0 {
		t.Fatal("fleet executed nothing for the point")
	}
	again, err := coord.RunOne(context.Background(), id, ps)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Table.Title != "point x=7" {
		t.Fatalf("warm point = %+v, want front-cache hit", again)
	}
	if n := fleetExecs.Load(); n != fetched {
		t.Errorf("warm call reached the fleet (%d -> %d executions)", fetched, n)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d local executions with a healthy fleet", n)
	}
}

// TestRunParamDeadFleetRunsLocally: every worker down, the point
// degrades to local evaluation exactly like a fixed experiment — with
// no family configured anywhere: the point carries its own family, and
// the coordinator's local registry is a test override the real
// families do not cover.
func TestRunParamDeadFleetRunsLocally(t *testing.T) {
	const id = "E1"
	localReg, localFams, localExecs := paramFixture(id)
	coord, err := New(Options{
		Workers: []string{"http://" + deadAddr(t)},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := paramPoint(t, localFams, id, "x=3")
	res, err := coord.RunOne(context.Background(), id, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Table == nil || res.Table.Title != "point x=3" {
		t.Fatalf("fallback result = %+v", res)
	}
	if n := localExecs.Load(); n != 1 {
		t.Errorf("local executions = %d, want 1", n)
	}
	if st := coord.Stats(); st.Local != 1 {
		t.Errorf("stats = %+v, want one local run", st)
	}
}

// TestRunParamUnknownFamily: a point of one family requested for an
// experiment of another id is a coordinator configuration error,
// raised before anything is fetched or run — not a panic, and not a
// silent run of either experiment.
func TestRunParamUnknownFamily(t *testing.T) {
	reg, _ := syntheticRegistry("E1")
	coord, err := New(Options{
		Workers: []string{"http://" + deadAddr(t)},
		Local:   experiments.Options{Registry: reg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, fams, execs := paramFixture("E2")
	for _, list := range []string{"x=2", ""} {
		ps := paramPoint(t, fams, "E2", list)
		if _, err := coord.RunOne(context.Background(), "E1", ps); err == nil ||
			!strings.Contains(err.Error(), "parameters of E2 given for E1") {
			t.Fatalf("point %q: err = %v, want an id/ParamSet mismatch error", list, err)
		}
	}
	if st := coord.Stats(); st.Local != 0 || st.Failovers != 0 || execs.Load() != 0 {
		t.Fatalf("mismatched point ran: stats %+v, executions %d", st, execs.Load())
	}
}

// TestRunParamWholeByteIdentical: a non-default point fetched whole
// from a two-worker fleet re-encodes to the bytes a local evaluation
// of the same point produces, with nothing run locally.
func TestRunParamWholeByteIdentical(t *testing.T) {
	const id = "E2"
	w1, execs1 := newParamWorker(t, id)
	w2, execs2 := newParamWorker(t, id)
	localReg, localFams, localExecs := paramFixture(id)
	coord, err := New(Options{
		Workers: []string{w1, w2},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := paramPoint(t, localFams, id, "x=5")
	res, err := coord.RunOne(context.Background(), id, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	_, baselineFams, _ := paramFixture(id)
	want, err := baselineFams[id].Run(paramPoint(t, baselineFams, id, "x=5"))
	if err != nil {
		t.Fatal(err)
	}
	got := encodeAll(t, []experiments.Result{res})
	wantBytes := encodeAll(t, []experiments.Result{{ID: id, Table: want}})
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("fleet point differs from local point:\n%s\nvs\n%s", got, wantBytes)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d local evaluations with a healthy fleet", n)
	}
	if n := execs1.Load() + execs2.Load(); n != 1 {
		t.Errorf("fleet evaluated the point %d times, want once", n)
	}
	if st := coord.Stats(); st.Remote != 1 || st.Local != 0 {
		t.Errorf("stats = %+v, want one remote fetch", st)
	}
}
