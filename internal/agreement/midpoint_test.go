package agreement

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

func TestMidpointExhaustiveTwoProcsOneRound(t *testing.T) {
	// One IS round for two processes: C(12,6) = 924 interleavings at
	// most; the decision spread must be ≤ 1/2.
	for _, inputs := range binaryInputPairs {
		var mr *MidpointRun
		factory := func() []sched.ProcFunc {
			mp := NewMidpoint(2, 1)
			mr = &MidpointRun{
				Inputs:  inputs[:],
				Outs:    make([]Decision, 2),
				Decided: make([]bool, 2),
			}
			return []sched.ProcFunc{
				mp.Proc(inputs[0], &mr.Outs[0], &mr.Decided[0]),
				mp.Proc(inputs[1], &mr.Outs[1], &mr.Decided[1]),
			}
		}
		runs, err := schedtest.VisitAll(factory, 0, func(r *sched.Result) {
			if e := r.Err(); e != nil {
				t.Fatalf("inputs %v: %v", inputs, e)
			}
			mr.Result = r
			if err := mr.Check(1); err != nil {
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

func TestMidpointSampledLargerSystems(t *testing.T) {
	cases := []struct {
		n, rounds int
	}{
		{3, 3}, {4, 3}, {5, 2},
	}
	for _, c := range cases {
		for seed := int64(0); seed < 30; seed++ {
			inputs := make([]uint64, c.n)
			for i := range inputs {
				inputs[i] = uint64((int(seed) >> i) & 1)
			}
			mr, err := RunMidpoint(c.n, c.rounds, inputs, sched.NewRandom(seed))
			if err != nil {
				t.Fatal(err)
			}
			if e := mr.Result.Err(); e != nil {
				t.Fatalf("n=%d seed=%d: %v", c.n, seed, e)
			}
			if err := mr.Check(c.rounds); err != nil {
				t.Fatalf("n=%d rounds=%d seed=%d: %v", c.n, c.rounds, seed, err)
			}
			for i, d := range mr.Decided {
				if !d {
					t.Fatalf("n=%d seed=%d: process %d undecided", c.n, seed, i)
				}
			}
		}
	}
}

func TestMidpointWaitFreeUnderCrashes(t *testing.T) {
	// Wait-freedom: with up to n-1 crashes the survivors still decide.
	n, rounds := 4, 2
	inputs := []uint64{0, 1, 1, 0}
	for seed := int64(0); seed < 20; seed++ {
		crashes := map[int]int{
			int(seed) % n:       int(seed),
			(int(seed) + 1) % n: int(seed * 2),
			(int(seed) + 2) % n: int(seed*3) + 1,
		}
		scheduler := sched.NewCrashAt(sched.NewRandom(seed), crashes)
		mr, err := RunMidpoint(n, rounds, inputs, scheduler)
		if err != nil {
			t.Fatal(err)
		}
		if err := mr.Check(rounds); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < n; i++ {
			if mr.Result.Correct(i) && !mr.Decided[i] {
				t.Fatalf("seed %d: correct process %d undecided", seed, i)
			}
		}
	}
}

func TestMidpointSolo(t *testing.T) {
	// A solo process decides its own input exactly.
	for _, x := range []uint64{0, 1} {
		inputs := []uint64{x, 1 - x, 1 - x}
		mr, err := RunMidpoint(3, 3, inputs, sched.Solo{Pid: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !mr.Decided[0] {
			t.Fatal("solo process undecided")
		}
		want := Dec(int(x)*8, 8)
		if mr.Outs[0] != want {
			t.Fatalf("solo decided %v, want %v", mr.Outs[0], want)
		}
	}
}

func TestMidpointValidity(t *testing.T) {
	for _, x := range []uint64{0, 1} {
		inputs := []uint64{x, x, x}
		mr, err := RunMidpoint(3, 3, inputs, sched.NewRandom(7))
		if err != nil {
			t.Fatal(err)
		}
		if e := mr.Result.Err(); e != nil {
			t.Fatal(e)
		}
		for i, d := range mr.Outs {
			if d.Num != int(x)*d.Den {
				t.Fatalf("process %d decided %v with unanimous input %d", i, d, x)
			}
		}
	}
}

func TestMidpointPrecisionSeries(t *testing.T) {
	// More rounds, finer agreement: the worst observed spread over many
	// schedules shrinks as 1/2^rounds.
	n := 3
	inputs := []uint64{0, 1, 1}
	for _, rounds := range []int{1, 2, 4} {
		for seed := int64(0); seed < 15; seed++ {
			mr, err := RunMidpoint(n, rounds, inputs, sched.NewRandom(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := mr.Check(rounds); err != nil {
				t.Fatalf("rounds=%d seed=%d: %v", rounds, seed, err)
			}
		}
	}
}
