package labelling

import (
	"testing"

	"repro/internal/agreement"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

var fastInputPairs = [][2]uint64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}

func TestFastAgreementRandomSchedules(t *testing.T) {
	fa, err := NewFastAgreement(6)
	if err != nil {
		t.Fatal(err)
	}
	if fa.EpsDen() < 1<<6 {
		t.Fatalf("precision denominator %d < 2^6", fa.EpsDen())
	}
	for _, inputs := range fastInputPairs {
		for seed := int64(0); seed < 60; seed++ {
			fr, err := fa.Run(inputs, sched.NewRandom(seed))
			if err != nil {
				t.Fatal(err)
			}
			if e := fr.Result.Err(); e != nil {
				t.Fatalf("inputs %v seed %d: %v", inputs, seed, e)
			}
			if !fr.Decided[0] || !fr.Decided[1] {
				t.Fatalf("inputs %v seed %d: undecided", inputs, seed)
			}
			if err := fa.Check(fr); err != nil {
				t.Fatalf("inputs %v seed %d: %v", inputs, seed, err)
			}
		}
	}
}

func TestFastAgreementExhaustiveSmall(t *testing.T) {
	// R = 3 keeps each process at ≤ 8 steps, so all interleavings can be
	// enumerated.
	fa, err := NewFastAgreement(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, inputs := range fastInputPairs {
		var fr *FastRun
		factory := func() []sched.ProcFunc {
			fr = &FastRun{Inputs: inputs}
			m := NewAlg6Memory(fa.Cfg)
			return []sched.ProcFunc{
				fa.Proc(m, inputs[0], &fr.Outs[0], &fr.Decided[0]),
				fa.Proc(m, inputs[1], &fr.Outs[1], &fr.Decided[1]),
			}
		}
		runs, err := schedtest.VisitAll(factory, 0, func(r *sched.Result) {
			if e := r.Err(); e != nil {
				t.Fatalf("inputs %v: %v", inputs, e)
			}
			fr.Result = r
			if err := fa.Check(fr); err != nil {
				t.Fatalf("inputs %v: %v", inputs, err)
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

func TestFastAgreementSolo(t *testing.T) {
	fa, err := NewFastAgreement(5)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 2; pid++ {
		for _, x := range []uint64{0, 1} {
			var inputs [2]uint64
			inputs[pid] = x
			inputs[1-pid] = 1 - x
			fr, err := fa.Run(inputs, sched.Solo{Pid: pid})
			if err != nil {
				t.Fatal(err)
			}
			if !fr.Decided[pid] {
				t.Fatal("solo process undecided")
			}
			if !agreement.WithinEps(fr.Outs[pid], agreement.Dec(int(x), 1), 0, 1) {
				t.Fatalf("solo %d input %d decided %v", pid, x, fr.Outs[pid])
			}
		}
	}
}

func TestFastAgreementUnderCrashes(t *testing.T) {
	fa, err := NewFastAgreement(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, inputs := range fastInputPairs {
		for victim := 0; victim < 2; victim++ {
			for crashAt := 0; crashAt <= fa.MaxSteps(); crashAt++ {
				scheduler := sched.NewCrashAt(&sched.RoundRobin{}, map[int]int{victim: crashAt})
				fr, err := fa.Run(inputs, scheduler)
				if err != nil {
					t.Fatal(err)
				}
				if !fr.Decided[1-victim] {
					t.Fatalf("inputs %v victim %d crashAt %d: survivor undecided",
						inputs, victim, crashAt)
				}
				if err := fa.Check(fr); err != nil {
					t.Fatalf("inputs %v victim %d crashAt %d: %v", inputs, victim, crashAt, err)
				}
			}
		}
	}
}

func TestFastAgreementStepComplexityLogarithmic(t *testing.T) {
	// Theorem 8.1 vs Algorithm 1: for precision 1/2^R the fast protocol
	// takes O(R) steps while Algorithm 1 needs Θ(2^R) steps — the
	// exponential separation of §8.
	for _, r := range []int{4, 6, 8} {
		fa, err := NewFastAgreement(r)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := fa.Run([2]uint64{0, 1}, &sched.RoundRobin{})
		if err != nil {
			t.Fatal(err)
		}
		if e := fr.Result.Err(); e != nil {
			t.Fatal(e)
		}
		fastSteps := fr.Result.Steps[0]
		if fastSteps > fa.MaxSteps() {
			t.Fatalf("R=%d: %d steps > bound %d", r, fastSteps, fa.MaxSteps())
		}
		// Algorithm 1 at the same precision 1/(2k+1) ≤ 1/EpsDen needs
		// k ≥ (EpsDen-1)/2 rounds.
		k := (fa.EpsDen() - 1) / 2
		if alg1Steps := agreement.Alg1MaxSteps(k); alg1Steps <= 2*fastSteps {
			t.Fatalf("R=%d: no separation: fast %d vs alg1 %d", r, fastSteps, alg1Steps)
		}
	}
}

func TestFastAgreementWidth6(t *testing.T) {
	// All runs above would fail on a width violation; assert the width is
	// really 6 bits.
	fa, err := NewFastAgreement(8)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Cfg.RegisterBits() != 6 {
		t.Fatalf("register width = %d bits, want 6", fa.Cfg.RegisterBits())
	}
	m := NewAlg6Memory(fa.Cfg)
	if m.Width() != 6 {
		t.Fatalf("memory width = %d", m.Width())
	}
}
