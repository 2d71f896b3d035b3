package sched

import (
	"errors"
	"testing"
)

// TestExploreAsymmetricMultinomial: 3 processes with 1, 2, 3 steps have
// 6!/(1!·2!·3!) = 60 interleavings.
func TestExploreAsymmetricMultinomial(t *testing.T) {
	factory := func() []ProcFunc {
		var sink []int
		return []ProcFunc{counterProc(1, &sink), counterProc(2, &sink), counterProc(3, &sink)}
	}
	runs, err := exploreAll(factory, func(*Result) {})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 60 {
		t.Fatalf("runs = %d, want 60", runs)
	}
}

// TestExploreVisitStops: a Leaf error stops the exploration at that
// execution, and Explore returns it.
func TestExploreVisitStops(t *testing.T) {
	stop := errors.New("found")
	seen := 0
	factory := func() Instance {
		var sink []int
		return Instance{
			Procs: []ProcFunc{counterProc(3, &sink), counterProc(3, &sink)},
			Leaf: func(*Result) (any, error) {
				seen++
				if seen == 2 {
					return nil, stop
				}
				return nil, nil
			},
		}
	}
	_, stats, err := Explore(factory, Options{})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the Leaf's error", err)
	}
	if seen != 2 || stats.Replays != 2 {
		t.Fatalf("visited %d executions in %d replays, want 2", seen, stats.Replays)
	}
}

// TestCrashAtMultipleVictims crashes two of three processes.
func TestCrashAtMultipleVictims(t *testing.T) {
	var log []int
	sch := NewCrashAt(&RoundRobin{}, map[int]int{0: 1, 2: 2})
	procs := []ProcFunc{counterProc(5, &log), counterProc(5, &log), counterProc(5, &log)}
	res, err := Run(Config{Scheduler: sch}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[0] || !res.Crashed[2] {
		t.Fatalf("crashed = %v", res.Crashed)
	}
	if res.Steps[0] != 1 || res.Steps[2] != 2 {
		t.Fatalf("steps = %v", res.Steps)
	}
	if !res.Correct(1) || res.Steps[1] != 5 {
		t.Fatalf("survivor steps = %d", res.Steps[1])
	}
}

// TestReplayWithFallback: after the forced prefix the fallback policy
// takes over.
func TestReplayWithFallback(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(2, &log), counterProc(2, &log)}
	sch := &Replay{Prefix: []int{1}, Fallback: Lowest{}}
	res, err := Run(Config{Scheduler: sch}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Err(); e != nil {
		t.Fatal(e)
	}
	want := []int{1, 0, 0, 1}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// TestRoundRobinFairness: within any window of n grants every enabled
// process appears.
func TestRoundRobinFairness(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(10, &log), counterProc(10, &log), counterProc(10, &log)}
	if _, err := Run(Config{Scheduler: &RoundRobin{}}, procs); err != nil {
		t.Fatal(err)
	}
	for start := 0; start+3 <= len(log); start += 3 {
		seen := map[int]bool{}
		for _, pid := range log[start : start+3] {
			seen[pid] = true
		}
		if len(seen) != 3 {
			t.Fatalf("window %v not fair", log[start:start+3])
		}
	}
}

// TestRandomFairnessEventually: under the seeded random scheduler every
// process completes (probabilistic fairness holds on finite programs).
func TestRandomFairnessEventually(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var log []int
		procs := []ProcFunc{counterProc(20, &log), counterProc(20, &log), counterProc(20, &log), counterProc(20, &log)}
		res, err := Run(Config{Scheduler: NewRandom(seed)}, procs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if res.Steps[i] != 20 {
				t.Fatalf("seed %d: steps = %v", seed, res.Steps)
			}
		}
	}
}

// TestProgramOrderPreserved: each process's steps occur in program order
// regardless of the interleaving (sanity of the step machinery).
func TestProgramOrderPreserved(t *testing.T) {
	factory := func() []ProcFunc {
		var sink []int
		return []ProcFunc{counterProc(3, &sink), counterProc(2, &sink)}
	}
	_, err := exploreAll(factory, func(r *Result) {
		count := map[int]int{}
		for _, d := range r.Decisions {
			count[d.Pid]++
		}
		if count[0] != 3 || count[1] != 2 {
			t.Fatalf("decision counts %v", count)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSoloOnFinishedProcessHalts: Solo halts once its process is done,
// crashing the rest.
func TestSoloOnFinishedProcessHalts(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(2, &log), counterProc(2, &log), counterProc(2, &log)}
	res, err := Run(Config{Scheduler: Solo{Pid: 2}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct(2) {
		t.Fatal("solo process should complete")
	}
	if !res.Crashed[0] || !res.Crashed[1] {
		t.Fatal("other processes should be crashed at halt")
	}
}

// TestStepWhenManyWaiters: several processes blocked on conditions that
// unlock in sequence.
func TestStepWhenManyWaiters(t *testing.T) {
	stage := 0
	order := []int{}
	mk := func(want int) ProcFunc {
		return func(p *Proc) error {
			p.StepWhen(func() bool { return stage == want })
			order = append(order, want)
			stage++
			return nil
		}
	}
	// Processes wait for stages 2, 1, 0 respectively; they must complete
	// in reverse pid order.
	procs := []ProcFunc{mk(2), mk(1), mk(0)}
	res, err := Run(Config{Scheduler: Lowest{}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Err(); e != nil {
		t.Fatal(e)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestDecisionTraceMatchesSteps: in a recorded run (the explorer's
// replays), Decisions and EnabledSets line up and only contain legal
// picks.
func TestDecisionTraceMatchesSteps(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(3, &log), counterProc(4, &log)}
	rn := newRunner(len(procs))
	defer rn.close()
	res, err := runInto(Config{Scheduler: NewRandom(3)}, procs, nil, rn, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != len(res.EnabledSets) {
		t.Fatal("trace length mismatch")
	}
	if len(res.Decisions) != res.TotalSteps {
		t.Fatalf("decisions %d vs steps %d", len(res.Decisions), res.TotalSteps)
	}
	for i, d := range res.Decisions {
		found := false
		for _, pid := range res.EnabledSets[i] {
			if pid == d.Pid {
				found = true
			}
		}
		if !found {
			t.Fatalf("decision %d picked %d outside enabled %v", i, d.Pid, res.EnabledSets[i])
		}
	}
}

// TestRunRecordsNoLog: a plain Run keeps no decision log — only
// Explore's replays record one.
func TestRunRecordsNoLog(t *testing.T) {
	res, err := Run(Config{Scheduler: NewRandom(3)}, stepSystem([]int{3, 4, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps != 9 {
		t.Fatalf("total steps %d, want 9", res.TotalSteps)
	}
	if len(res.Decisions) != 0 || len(res.EnabledSets) != 0 {
		t.Fatalf("Run recorded %d decisions and %d enabled sets", len(res.Decisions), len(res.EnabledSets))
	}
}

// TestRunAllocsIndependentOfSteps: without the log, a Run's
// allocations do not grow with its length — ten times the steps
// allocate no more.
func TestRunAllocsIndependentOfSteps(t *testing.T) {
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(Config{Scheduler: &RoundRobin{}}, stepSystem([]int{steps, steps})); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(100), allocs(1000)
	if long > short {
		t.Fatalf("a 2000-step Run allocates %.0f times, a 200-step one %.0f", long, short)
	}
}
