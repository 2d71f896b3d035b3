package experiments

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/agreement"
	"repro/internal/sched"
	"repro/internal/task"
)

// encodeAll renders a result slice in the three wire formats.
func encodeAll(t *testing.T, results []Result) (text, js, csv string) {
	t.Helper()
	var bt, bj, bc bytes.Buffer
	if err := EncodeText(&bt, results); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSON(&bj, results); err != nil {
		t.Fatal(err)
	}
	if err := EncodeCSV(&bc, results); err != nil {
		t.Fatal(err)
	}
	return bt.String(), bj.String(), bc.String()
}

// oracleAlg1 is the exhaustive Algorithm 1 sweep aggregate: every
// execution replayed and folded into one collector, no memo and no
// Merge involved.
func oracleAlg1(t *testing.T, k int, inputs [2]uint64) *alg1SweepAgg {
	t.Helper()
	col := newAlg1Collector()
	_, stats, err := agreement.ExploreAlg1(k, inputs, sched.Options{}, func(ar *agreement.Alg1Run) (any, error) {
		col.visit(ar)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executions != col.execs {
		t.Fatalf("k=%d: %d executions accounted, %d visited", k, stats.Executions, col.execs)
	}
	return col.agg()
}

// oracleResults renders E2, E15 and E16 through the exhaustive oracle:
// the same finish paths as the registry runners, fed by aggregates of
// an exhaustive replay of every interleaving.
func oracleResults(t *testing.T) []Result {
	t.Helper()
	e2, err := finishE2(oracleAlg1(t, e2K, e2Inputs), e2K, e2Inputs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e15Plan(e15Choice)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := task.ExploreAlg2(plan, e15Input, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e15, err := finishE15(&alg2SweepAgg{Execs: stats.Executions}, e15Choice, e15Input)
	if err != nil {
		t.Fatal(err)
	}
	e16, err := finishE16(oracleAlg1(t, e16K, e16Inputs))
	if err != nil {
		t.Fatal(err)
	}
	return []Result{{ID: "E2", Table: e2}, {ID: "E15", Table: e15}, {ID: "E16", Table: e16}}
}

// TestExhaustiveOracleMatchesRegistryBytes is the explore gate: the
// registry's memoized E2, E15 and E16 must encode byte-identically to
// the exhaustive oracle in all three formats, while replaying far
// fewer runs than the executions they account for.
func TestExhaustiveOracleMatchesRegistryBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	ids := []string{"E2", "E15", "E16"}
	got, err := Run(context.Background(), Options{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(got); err != nil {
		t.Fatal(err)
	}
	want := oracleResults(t)

	wt, wj, wc := encodeAll(t, want)
	gt, gj, gc := encodeAll(t, got)
	if gt != wt {
		t.Errorf("text output diverges:\n--- exhaustive ---\n%s--- registry ---\n%s", wt, gt)
	}
	if gj != wj {
		t.Errorf("json output diverges")
	}
	if gc != wc {
		t.Errorf("csv output diverges")
	}

	for _, r := range got {
		m := r.Memo
		if m.Executions == 0 || m.StatesVisited == 0 || m.StatesPruned == 0 {
			t.Errorf("%s: counters %+v, want executions, visited and pruned states", r.ID, m)
		}
		if m.Replays*10 >= m.Executions {
			t.Errorf("%s: %d replays for %d executions — memoization saved little", r.ID, m.Replays, m.Executions)
		}
	}
}

// memCache is a minimal in-memory Cache (not safe for concurrent use:
// runs over it use Jobs: 1).
type memCache map[string]Result

func (c memCache) Get(id string) (Result, bool) { r, ok := c[id]; return r, ok }
func (c memCache) Put(id string, r Result) error {
	c[id] = r
	return nil
}

// TestMemoExperimentsUseCache pins the counters' cache contract: a
// memoized experiment goes through Options.Cache like any other, its
// fresh run reports the explorer's counters, and a cache hit — which
// explores nothing — reports none.
func TestMemoExperimentsUseCache(t *testing.T) {
	cache := memCache{}
	ids := []string{"E2", "E1"}
	fresh, err := Run(context.Background(), Options{IDs: ids, Jobs: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(fresh); err != nil {
		t.Fatal(err)
	}
	if r := fresh[0]; r.Cached || r.Memo.Executions != 22080 || r.Memo.Replays == 0 {
		t.Errorf("fresh E2: Cached=%v Memo=%+v, want a fresh run accounting 22080 executions", r.Cached, r.Memo)
	}
	if r := fresh[1]; r.Memo != (sched.Stats{}) {
		t.Errorf("E1 explores no schedule tree but reports %+v", r.Memo)
	}

	warm, err := Run(context.Background(), Options{IDs: ids, Jobs: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range warm {
		if !r.Cached || r.Memo != (sched.Stats{}) {
			t.Errorf("%s warm: Cached=%v Memo=%+v, want a hit with no counters", r.ID, r.Cached, r.Memo)
		}
		a, _, _ := encodeAll(t, fresh[i:i+1])
		b, _, _ := encodeAll(t, warm[i:i+1])
		if a != b {
			t.Errorf("%s: cached bytes differ from the fresh run", r.ID)
		}
	}
}

// TestRegistryOverrideRunsOverride pins that a registry override's E2
// is the override's runner: the engine never swaps in the real memoized
// sweep for an id it happens to share.
func TestRegistryOverrideRunsOverride(t *testing.T) {
	calls := 0
	reg := map[string]Runner{"E2": func() (*Table, error) {
		calls++
		return &Table{ID: "E2", Title: "override", Headers: []string{"h"}}, nil
	}}
	results, err := Run(context.Background(), Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("results = %+v", results)
	}
	if r := results[0]; calls != 1 || r.Table.Title != "override" || r.Memo != (sched.Stats{}) {
		t.Fatalf("override E2 ran %d times, title %q, counters %+v; want the override once, no exploration",
			calls, r.Table.Title, r.Memo)
	}
}

// TestAlg1SweepAggMergeGrouping: merging is associative and
// commutative — any grouping of subtree contributions folds
// identically, the contract the memo's Merge relies on.
func TestAlg1SweepAggMergeGrouping(t *testing.T) {
	a := &alg1SweepAgg{Execs: 2, Seen: []int{0, 3}, WorstNum: 1, MaxSteps: 5}
	b := &alg1SweepAgg{Execs: 3, Seen: []int{1, 3, 9}, WorstNum: 0, MaxSteps: 7}
	c := &alg1SweepAgg{Execs: 1, Seen: []int{0, 9}, WorstNum: 2, MaxSteps: 2}

	clone := func(x *alg1SweepAgg) *alg1SweepAgg {
		cp := *x
		cp.Seen = append([]int(nil), x.Seen...)
		return &cp
	}
	fold := func(xs ...*alg1SweepAgg) *alg1SweepAgg {
		out := clone(xs[0])
		for _, x := range xs[1:] {
			out.Merge(clone(x))
		}
		return out
	}
	want := fold(a, b, c)
	for _, got := range []*alg1SweepAgg{fold(c, b, a), fold(b, a, c), fold(fold(a, b), c), fold(a, fold(b, c))} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merge grouping differs: %+v vs %+v", got, want)
		}
	}
	if want.Execs != 6 || !reflect.DeepEqual(want.Seen, []int{0, 1, 3, 9}) || want.WorstNum != 2 || want.MaxSteps != 7 {
		t.Fatalf("merged = %+v", want)
	}
}

// TestAlg2SweepAggMerge: E15's aggregate sums execution counts.
func TestAlg2SweepAggMerge(t *testing.T) {
	a := &alg2SweepAgg{Execs: 2}
	a.Merge(&alg2SweepAgg{Execs: 5})
	if a.Execs != 7 {
		t.Fatalf("merged execs = %d", a.Execs)
	}
}
