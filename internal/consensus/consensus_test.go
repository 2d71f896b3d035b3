package consensus

import (
	"testing"

	"repro/internal/agreement"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

func TestRoundingViolationExists(t *testing.T) {
	// Lemma 2.1 made visible: for every k there is an interleaving where
	// rounding ε-agreement splits the decision.
	for k := 1; k <= 4; k++ {
		v, err := FindRoundingViolation(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if v.Outs[0] == v.Outs[1] {
			t.Fatalf("k=%d: violation reported but outputs agree: %+v", k, v)
		}
		if len(v.Schedule) == 0 {
			t.Fatalf("k=%d: empty schedule", k)
		}
	}
}

func TestRoundingViolationReplayable(t *testing.T) {
	// The reported schedule is a real witness: replaying it reproduces
	// the disagreement.
	k := 3
	v, err := FindRoundingViolation(k)
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]uint64
	var decided [2]bool
	m := agreement.NewAlg1Memory()
	procs := []sched.ProcFunc{
		RoundedAgreementProc(m, k, v.Inputs[0], &outs[0], &decided[0]),
		RoundedAgreementProc(m, k, v.Inputs[1], &outs[1], &decided[1]),
	}
	res, err := sched.Run(sched.Config{Scheduler: &sched.Replay{Prefix: v.Schedule}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Err(); e != nil {
		t.Fatal(e)
	}
	if outs != v.Outs {
		t.Fatalf("replay outputs %v, recorded %v", outs, v.Outs)
	}
	if outs[0] == outs[1] {
		t.Fatal("replay did not reproduce the disagreement")
	}
}

func TestRoundingStillValid(t *testing.T) {
	// The rounding attempt never violates validity (outputs are inputs);
	// only agreement fails — exactly the consensus condition that is
	// unattainable.
	k := 2
	inputs := [2]uint64{0, 1}
	var outs [2]uint64
	var decided [2]bool
	factory := func() []sched.ProcFunc {
		outs, decided = [2]uint64{}, [2]bool{}
		m := agreement.NewAlg1Memory()
		return []sched.ProcFunc{
			RoundedAgreementProc(m, k, inputs[0], &outs[0], &decided[0]),
			RoundedAgreementProc(m, k, inputs[1], &outs[1], &decided[1]),
		}
	}
	_, err := schedtest.VisitAll(factory, 0, func(r *sched.Result) {
		for i := 0; i < 2; i++ {
			if decided[i] && outs[i] != 0 && outs[i] != 1 {
				t.Fatalf("non-binary decision %d", outs[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoundingAgreesOnEqualInputs(t *testing.T) {
	// With equal inputs the attempt succeeds everywhere (validity of the
	// underlying ε-agreement pins both outputs to the input).
	k := 2
	for _, x := range []uint64{0, 1} {
		inputs := [2]uint64{x, x}
		var outs [2]uint64
		var decided [2]bool
		factory := func() []sched.ProcFunc {
			outs, decided = [2]uint64{}, [2]bool{}
			m := agreement.NewAlg1Memory()
			return []sched.ProcFunc{
				RoundedAgreementProc(m, k, inputs[0], &outs[0], &decided[0]),
				RoundedAgreementProc(m, k, inputs[1], &outs[1], &decided[1]),
			}
		}
		_, err := schedtest.VisitAll(factory, 0, func(r *sched.Result) {
			if err := agreement.CheckConsensus(inputs[:], outs[:], decided[:]); err != nil {
				t.Fatalf("input %d: %v", x, err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWaitingConsensusCrashFree(t *testing.T) {
	// Waiting solves consensus over every crash-free interleaving...
	for _, inputs := range [][2]uint64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		var outs [2]uint64
		var decided [2]bool
		factory := func() []sched.ProcFunc {
			outs, decided = [2]uint64{}, [2]bool{}
			m := memory.New(2, 1)
			return WaitingConsensusProcs(m, inputs, &outs, &decided)
		}
		_, err := schedtest.VisitAll(factory, 0, func(r *sched.Result) {
			if e := r.Err(); e != nil {
				t.Fatalf("inputs %v: %v", inputs, e)
			}
			if !decided[0] || !decided[1] {
				t.Fatalf("inputs %v: undecided", inputs)
			}
			if err := agreement.CheckConsensus(inputs[:], outs[:], decided[:]); err != nil {
				t.Fatalf("inputs %v: %v", inputs, err)
			}
			if outs[0] != outs[1] || outs[0] != inputs[0] {
				t.Fatalf("inputs %v: outputs %v", inputs, outs)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWaitingConsensusBlocksOnCrash(t *testing.T) {
	// ...but one crash of process 0 leaves process 1 blocked forever:
	// the runtime reports deadlock, and process 1 never decides. This is
	// why waiting protocols do not contradict Lemma 2.1.
	inputs := [2]uint64{0, 1}
	var outs [2]uint64
	var decided [2]bool
	m := memory.New(2, 1)
	procs := WaitingConsensusProcs(m, inputs, &outs, &decided)
	scheduler := sched.NewCrashAt(&sched.RoundRobin{}, map[int]int{0: 0})
	res, err := sched.Run(sched.Config{Scheduler: scheduler}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("expected process 1 to block forever")
	}
	if decided[1] {
		t.Fatal("process 1 decided despite the missing input")
	}
}
