package sched

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// pidScheduler answers every decision with a fixed pid, which need not
// be enabled: Halt, or an out-of-range pid to exercise the
// scheduler-error path.
type pidScheduler int

func (s pidScheduler) Next([]int) Decision { return Decision{Pid: int(s)} }

// assertNoLeak fails t unless the goroutine count settles back to base:
// every process slot a run or an exploration started has ended.
func assertNoLeak(t *testing.T, path string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d: process slots leaked", path, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines: Run ends every process coroutine it started
// on each of its exit paths, including the scheduler-error path that
// used to abandon the parked processes.
func TestRunLeavesNoGoroutines(t *testing.T) {
	forever := func(p *Proc) error {
		for {
			p.Step()
		}
	}
	blocked := func(p *Proc) error {
		p.StepWhen(func() bool { return false })
		return nil
	}
	cases := []struct {
		name    string
		cfg     Config
		procs   []ProcFunc
		wantErr bool
		check   func(*Result) bool
	}{
		{"finish", Config{Scheduler: Lowest{}}, stepSystem([]int{2, 3, 1}), false,
			func(r *Result) bool { return r.TotalSteps == 6 && r.Err() == nil }},
		{"crash", Config{Scheduler: NewCrashAt(Lowest{}, map[int]int{0: 1, 2: 0})}, stepSystem([]int{3, 3, 3}), false,
			func(r *Result) bool { return r.Crashed[0] && !r.Crashed[1] && r.Crashed[2] }},
		{"deadlock", Config{Scheduler: Lowest{}}, []ProcFunc{blocked, blocked}, false,
			func(r *Result) bool { return r.Deadlocked && r.Crashed[0] && r.Crashed[1] }},
		{"budget", Config{Scheduler: &RoundRobin{}, MaxSteps: 10}, []ProcFunc{forever, forever}, false,
			func(r *Result) bool { return r.BudgetExceeded && r.TotalSteps == 10 }},
		{"halt", Config{Scheduler: pidScheduler(Halt)}, []ProcFunc{forever, forever, forever}, false,
			func(r *Result) bool { return r.TotalSteps == 0 && r.Crashed[0] && r.Crashed[2] }},
		{"bad pid", Config{Scheduler: pidScheduler(7)}, []ProcFunc{forever, forever}, true, nil},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		res, err := Run(c.cfg, c.procs)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
		if c.check != nil && !c.check(res) {
			t.Fatalf("%s: unexpected result %+v", c.name, res)
		}
		assertNoLeak(t, c.name, base)
	}
}

// TestRunIntoErrorLeavesRunnerReusable: a scheduler error unwinds every
// slot before runInto returns, so the same runner serves the next run.
func TestRunIntoErrorLeavesRunnerReusable(t *testing.T) {
	base := runtime.NumGoroutine()
	rn := newRunner(2)
	if _, err := runInto(Config{Scheduler: pidScheduler(5)}, stepSystem([]int{2, 2}), nil, rn, true); err == nil {
		t.Fatal("scheduler choosing a disabled pid was accepted")
	}
	res, err := runInto(Config{Scheduler: Lowest{}}, stepSystem([]int{2, 2}), nil, rn, true)
	if err != nil || res.TotalSteps != 4 || !res.Correct(0) || !res.Correct(1) {
		t.Fatalf("rerun on the same runner: %+v, %v", res, err)
	}
	rn.close()
	assertNoLeak(t, "runInto", base)
}

// TestExploreLeavesNoGoroutines: Explore closes its pooled runner on a
// complete walk and when a Leaf error stops the walk midway, in both
// modes.
func TestExploreLeavesNoGoroutines(t *testing.T) {
	errStop := errors.New("stop")
	for _, memo := range []bool{false, true} {
		leaves, failAt := 0, 0
		factory := func() Instance {
			taken := make([]int, 3)
			procs := make([]ProcFunc, 3)
			for i := range procs {
				procs[i] = func(p *Proc) error {
					for taken[p.ID] < 2 {
						p.Step()
						taken[p.ID]++
					}
					return nil
				}
			}
			return Instance{
				Procs: procs,
				State: func() StateKey { return StateKey(taken[0] | taken[1]<<2 | taken[2]<<4) },
				Leaf: func(*Result) (any, error) {
					if leaves++; leaves == failAt {
						return nil, errStop
					}
					return nil, nil
				},
			}
		}

		base := runtime.NumGoroutine()
		_, stats, err := Explore(factory, Options{Memo: memo})
		if err != nil || stats.Executions != 90 {
			t.Fatalf("memo=%v: %d executions, err %v; want 90", memo, stats.Executions, err)
		}
		assertNoLeak(t, "Explore", base)

		// Fail past the first leaf and before the last: mid-walk.
		total := leaves
		leaves, failAt = 0, total/2+1
		if failAt >= total {
			t.Fatalf("memo=%v: %d Leaf calls leave no mid-walk leaf", memo, total)
		}
		if _, _, err := Explore(factory, Options{Memo: memo}); !errors.Is(err, errStop) || leaves != failAt {
			t.Fatalf("memo=%v: err %v after %d leaves, want the Leaf error at leaf %d", memo, err, leaves, failAt)
		}
		assertNoLeak(t, "Explore Leaf error", base)
	}
}

// TestReplayClosesDroppedRunner: an explorer replaying a system of a
// different arity closes the runner it drops, not only the last one.
func TestReplayClosesDroppedRunner(t *testing.T) {
	base := runtime.NumGoroutine()
	e := &explorer{}
	for _, steps := range [][]int{{1, 1}, {1, 1, 1}, {1}} {
		res, err := e.replay(Instance{Procs: stepSystem(steps)}, Lowest{})
		if err != nil || res.TotalSteps != len(steps) || len(e.rn) != len(steps) {
			t.Fatalf("%v: %+v, %v", steps, res, err)
		}
		e.release(res)
	}
	e.rn.close()
	assertNoLeak(t, "replay", base)
}

// TestRunRepanicsProcessPanic: a process panic other than a crash is not
// swallowed as a crash and does not kill the binary from a stray
// goroutine; it re-panics in Run's caller with the original value, and
// the sibling processes' coroutines still end.
func TestRunRepanicsProcessPanic(t *testing.T) {
	type boom struct{ pid int }
	base := runtime.NumGoroutine()
	procs := stepSystem([]int{3, 0, 3})
	procs[1] = func(p *Proc) error {
		p.Step()
		panic(boom{p.ID})
	}
	rec := func() (rec any) {
		defer func() { rec = recover() }()
		Run(Config{Scheduler: &RoundRobin{}}, procs)
		return nil
	}()
	if rec != (boom{1}) {
		t.Fatalf("Run recovered %#v, want the process's own panic value boom{1}", rec)
	}
	assertNoLeak(t, "process panic", base)
}

// TestExploreRepanicsProcessPanic: the same panic inside a replay
// surfaces from Explore, which still closes its runner.
func TestExploreRepanicsProcessPanic(t *testing.T) {
	for _, memo := range []bool{false, true} {
		base := runtime.NumGoroutine()
		replays := 0
		factory := func() Instance {
			replays++
			procs := stepSystem([]int{2, 2})
			if replays == 3 {
				procs[0] = func(p *Proc) error { panic("replay 3") }
			}
			return Instance{Procs: procs, State: func() StateKey { return StateKey(replays) }}
		}
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			Explore(factory, Options{Memo: memo})
			return nil
		}()
		if rec != "replay 3" {
			t.Fatalf("memo=%v: Explore recovered %#v, want the process panic", memo, rec)
		}
		assertNoLeak(t, "Explore panic", base)
	}
}
