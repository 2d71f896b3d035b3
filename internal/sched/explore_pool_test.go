package sched

import (
	"fmt"
	"testing"
)

// TestRunIntoReuse pins the runInto contract directly: one Result and
// one runner recycled across differently-shaped recorded runs keep
// every field, the decision log included, consistent with a fresh
// recorded run.
func TestRunIntoReuse(t *testing.T) {
	res := &Result{}
	var rn runner
	defer func() { rn.close() }()
	for _, steps := range [][]int{{2, 2}, {3, 1}, {1, 1, 1}, {2, 2}} {
		procs := stepSystem(steps)
		if len(rn) != len(procs) {
			rn.close()
			rn = newRunner(len(procs))
		}
		got, err := runInto(Config{Scheduler: Lowest{}}, procs, res, rn, true)
		if err != nil {
			t.Fatal(err)
		}
		if got != res {
			t.Fatal("runInto did not reuse the provided Result")
		}
		fresh := newRunner(len(steps))
		want, err := runInto(Config{Scheduler: Lowest{}}, stepSystem(steps), nil, fresh, true)
		fresh.close()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Steps) != fmt.Sprint(want.Steps) ||
			fingerprint(res) != fingerprint(want) || fingerprint(res) == "" ||
			res.TotalSteps != want.TotalSteps {
			t.Fatalf("steps %v: reused result %v/%v diverges from fresh %v/%v",
				steps, res.Steps, fingerprint(res), want.Steps, fingerprint(want))
		}
	}
}

// TestExplorePropagatesError: a configuration error inside a replay
// surfaces from both modes instead of being taken for an execution.
func TestExplorePropagatesError(t *testing.T) {
	factory := func() Instance {
		return Instance{State: func() StateKey { return 0 }} // Run rejects empty process lists
	}
	for _, memo := range []bool{false, true} {
		if _, _, err := Explore(factory, Options{Memo: memo}); err == nil {
			t.Fatalf("memo=%v: empty system accepted", memo)
		}
	}
}

// TestStatsAdd: Add sums every counter.
func TestStatsAdd(t *testing.T) {
	s := Stats{Executions: 1, Replays: 2, StatesVisited: 3, StatesPruned: 4}
	s.Add(Stats{Executions: 10, Replays: 20, StatesVisited: 30, StatesPruned: 40})
	if want := (Stats{Executions: 11, Replays: 22, StatesVisited: 33, StatesPruned: 44}); s != want {
		t.Fatalf("sum %+v, want %+v", s, want)
	}
}
