package task

import (
	"testing"

	"repro/internal/sched"
)

// planFor builds a plan for the task using the full output set (or the
// first solvable subset).
func planFor(t *testing.T, task *Task) *Plan {
	t.Helper()
	sub, ok := task.FindSolvableSubset()
	if !ok {
		t.Fatalf("task %s not solvable", task.Name)
	}
	plan, err := task.BuildPlan(sub)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestAlg2Exhaustive validates Theorem 1.2 constructively: Algorithm 2
// solves solvable tasks over every interleaving and every input.
func TestAlg2Exhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	for _, task := range []*Task{
		DiscreteEpsAgreement(2),
		ChoiceTask(2),
	} {
		plan := planFor(t, task)
		for _, input := range task.Inputs {
			stats, err := ExploreAlg2(plan, input, sched.Options{})
			if err != nil {
				t.Fatalf("%s input %v after %d runs: %v", task.Name, input, stats.Executions, err)
			}
			if stats.Executions == 0 {
				t.Fatalf("%s input %v: no runs", task.Name, input)
			}
		}
	}
}

// TestAlg2LargerTasksSampled validates Algorithm 2 on larger tasks under
// many random schedules (exhaustive exploration would be too large).
func TestAlg2LargerTasksSampled(t *testing.T) {
	for _, task := range []*Task{
		DiscreteEpsAgreement(6),
		CycleAgreement(6),
	} {
		plan := planFor(t, task)
		for _, input := range task.Inputs {
			for seed := int64(0); seed < 30; seed++ {
				sys, res, err := RunAlg2(plan, input, sched.NewRandom(seed))
				if err != nil {
					t.Fatal(err)
				}
				if e := res.Err(); e != nil {
					t.Fatalf("%s input %v seed %d: %v", task.Name, input, seed, e)
				}
				if !sys.Decided[0] || !sys.Decided[1] {
					t.Fatalf("%s input %v seed %d: undecided process", task.Name, input, seed)
				}
				if err := CheckRun(task, input, sys); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
	}
}

// TestAlg2Solo checks that a process running solo still decides, and its
// decision extends to a legal output for every possible input of the
// crashed process (wait-freedom of the universal construction).
func TestAlg2Solo(t *testing.T) {
	task := DiscreteEpsAgreement(4)
	plan := planFor(t, task)
	for _, input := range task.Inputs {
		for pid := 0; pid < 2; pid++ {
			sys, res, err := RunAlg2(plan, input, sched.Solo{Pid: pid})
			if err != nil {
				t.Fatal(err)
			}
			_ = res
			if !sys.Decided[pid] {
				t.Fatalf("solo %d input %v: no decision", pid, input)
			}
			if err := CheckRun(task, input, sys); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAlg2UnderCrashes checks every crash point of either process under a
// round-robin schedule: the survivor decides a value extendable to a legal
// output.
func TestAlg2UnderCrashes(t *testing.T) {
	task := DiscreteEpsAgreement(4)
	plan := planFor(t, task)
	maxSteps := 2*(plan.L/2) + 3 + 4 // Alg1 steps + input ops bound
	for _, input := range task.Inputs {
		for victim := 0; victim < 2; victim++ {
			for crashAt := 0; crashAt <= maxSteps; crashAt++ {
				scheduler := sched.NewCrashAt(&sched.RoundRobin{}, map[int]int{victim: crashAt})
				sys, res, err := RunAlg2(plan, input, scheduler)
				if err != nil {
					t.Fatal(err)
				}
				if e := res.Errs[1-victim]; e != nil {
					t.Fatalf("input %v victim %d crashAt %d: survivor error %v",
						input, victim, crashAt, e)
				}
				if !sys.Decided[1-victim] {
					t.Fatalf("input %v victim %d crashAt %d: survivor undecided",
						input, victim, crashAt)
				}
				if err := CheckRun(task, input, sys); err != nil {
					t.Fatalf("input %v victim %d crashAt %d: %v", input, victim, crashAt, err)
				}
			}
		}
	}
}

// TestAlg2ValidityOnAgreement checks the ε-agreement-specific validity:
// with equal inputs x both processes decide exactly xL.
func TestAlg2ValidityOnAgreement(t *testing.T) {
	l := 4
	task := DiscreteEpsAgreement(l)
	plan := planFor(t, task)
	for _, x := range []int{0, 1} {
		input := Pair{x, x}
		for seed := int64(0); seed < 20; seed++ {
			sys, res, err := RunAlg2(plan, input, sched.NewRandom(seed))
			if err != nil {
				t.Fatal(err)
			}
			if e := res.Err(); e != nil {
				t.Fatal(e)
			}
			want := x * l
			if sys.Outs[0] != want || sys.Outs[1] != want {
				t.Fatalf("input %v: outputs %v, want both %d", input, sys.Outs, want)
			}
		}
	}
}
