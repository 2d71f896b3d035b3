package task

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

func TestAlg2FastSampled(t *testing.T) {
	for _, tk := range []*Task{
		DiscreteEpsAgreement(4),
		DiscreteEpsAgreement(6),
		CycleAgreement(6),
		ChoiceTask(2),
	} {
		plan := planFor(t, tk)
		for _, input := range tk.Inputs {
			for seed := int64(0); seed < 25; seed++ {
				sys, res, err := RunAlg2Fast(plan, input, sched.NewRandom(seed))
				if err != nil {
					t.Fatal(err)
				}
				if e := res.Err(); e != nil {
					t.Fatalf("%s input %v seed %d: %v", tk.Name, input, seed, e)
				}
				if !sys.Decided[0] || !sys.Decided[1] {
					t.Fatalf("%s input %v seed %d: undecided", tk.Name, input, seed)
				}
				if err := CheckFastRun(tk, input, sys); err != nil {
					t.Fatalf("%s input %v seed %d: %v", tk.Name, input, seed, err)
				}
			}
		}
	}
}

func TestAlg2FastExhaustiveSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	tk := DiscreteEpsAgreement(2)
	plan := planFor(t, tk)
	fa, err := FastAgreementFor(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Two representative inputs (mixed and equal) keep the enumeration
	// near 700k interleavings total.
	for _, input := range []Pair{{0, 1}, {1, 1}} {
		var sys *Alg2FastSystem
		factory := func() []sched.ProcFunc {
			sys = NewAlg2FastSystem(plan, fa)
			return []sched.ProcFunc{sys.Proc(0, input[0]), sys.Proc(1, input[1])}
		}
		runs, err := schedtest.VisitAll(factory, 0, func(r *sched.Result) {
			if e := r.Err(); e != nil {
				t.Fatalf("input %v: %v", input, e)
			}
			if err := CheckFastRun(tk, input, sys); err != nil {
				t.Fatalf("input %v: %v", input, err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if runs == 0 {
			t.Fatal("no runs")
		}
	}
}

func TestAlg2FastSoloAndCrashes(t *testing.T) {
	tk := DiscreteEpsAgreement(4)
	plan := planFor(t, tk)
	for _, input := range tk.Inputs {
		for pid := 0; pid < 2; pid++ {
			sys, _, err := RunAlg2Fast(plan, input, sched.Solo{Pid: pid})
			if err != nil {
				t.Fatal(err)
			}
			if !sys.Decided[pid] {
				t.Fatalf("solo %d undecided", pid)
			}
			if err := CheckFastRun(tk, input, sys); err != nil {
				t.Fatal(err)
			}
		}
		for victim := 0; victim < 2; victim++ {
			for crashAt := 0; crashAt <= 20; crashAt++ {
				scheduler := sched.NewCrashAt(&sched.RoundRobin{}, map[int]int{victim: crashAt})
				sys, _, err := RunAlg2Fast(plan, input, scheduler)
				if err != nil {
					t.Fatal(err)
				}
				if !sys.Decided[1-victim] {
					t.Fatalf("input %v victim %d crashAt %d: survivor undecided", input, victim, crashAt)
				}
				if err := CheckFastRun(tk, input, sys); err != nil {
					t.Fatalf("input %v victim %d crashAt %d: %v", input, victim, crashAt, err)
				}
			}
		}
	}
}

func TestAlg2FastStepAdvantage(t *testing.T) {
	// On a task with a long path (fine-grained agreement), the fast
	// construction takes fewer agreement steps than the classic one:
	// O(log L) vs Θ(L).
	tk := DiscreteEpsAgreement(40)
	plan := planFor(t, tk)
	input := Pair{0, 1}

	classic, resC, err := RunAlg2(plan, input, &sched.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRun(tk, input, classic); err != nil {
		t.Fatal(err)
	}
	fast, resF, err := RunAlg2Fast(plan, input, &sched.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFastRun(tk, input, fast); err != nil {
		t.Fatal(err)
	}
	if resF.Steps[0] >= resC.Steps[0] {
		t.Fatalf("no speedup: fast %d steps vs classic %d", resF.Steps[0], resC.Steps[0])
	}
}

func TestAlg2FastValidity(t *testing.T) {
	l := 4
	tk := DiscreteEpsAgreement(l)
	plan := planFor(t, tk)
	for _, x := range []int{0, 1} {
		input := Pair{x, x}
		for seed := int64(0); seed < 15; seed++ {
			sys, res, err := RunAlg2Fast(plan, input, sched.NewRandom(seed))
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
