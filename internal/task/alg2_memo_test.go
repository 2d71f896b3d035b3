package task

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

// alg2FP fingerprints one completed Algorithm 2 execution in
// relabelling-invariant terms: per-process (task input, output,
// decided, final register contents across both memories) tuples,
// sorted — the multiset the memoized explorer is allowed to preserve.
func alg2FP(sys *Alg2System, input Pair) string {
	pair := make([]string, 2)
	for i := 0; i < 2; i++ {
		pair[i] = fmt.Sprintf("in%d out%d dec%v task%v agree%v itask%v iagree%v",
			input[i], sys.Outs[i], sys.Decided[i],
			sys.memTask.Peek(i), sys.memAgree.Peek(i),
			sys.memTask.InputWritten(i), sys.memAgree.InputWritten(i))
	}
	sort.Strings(pair)
	return fmt.Sprint(pair)
}

// TestAlg2MemoMatchesExhaustive pins the memoized Algorithm 2
// exploration to the exhaustive one across tasks and inputs: identical
// fingerprint multisets (via a sched-level differential on the same
// system factory), identical execution counts from the public
// ExploreAlg2, and real pruning.
func TestAlg2MemoMatchesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	for _, tk := range []*Task{ChoiceTask(2), CycleAgreement(6)} {
		plan := planFor(t, tk)
		for _, input := range plan.Task.Inputs {
			name := fmt.Sprintf("%s_in%d%d", tk.Name, input[0], input[1])
			t.Run(name, func(t *testing.T) {
				// One fingerprinting system factory, explored by both
				// modes: exhaustive (the oracle) and memoized.
				factory := func() sched.Instance {
					sys := NewAlg2System(plan)
					return sched.Instance{
						Procs: []sched.ProcFunc{sys.Proc(0, input[0]), sys.Proc(1, input[1])},
						State: sys.StateKey,
						Leaf: func(*sched.Result) (any, error) {
							return schedtest.Counts{alg2FP(sys, input): 1}, nil
						},
					}
				}
				whole, exh, err := sched.Explore(factory, sched.Options{Merge: schedtest.Merge})
				if err != nil {
					t.Fatal(err)
				}
				want, runs := schedtest.AsCounts(whole), exh.Executions
				agg, stats, err := sched.Explore(factory, sched.Options{Memo: true, Merge: schedtest.Merge})
				if err != nil {
					t.Fatal(err)
				}
				if d := schedtest.Diff(schedtest.AsCounts(agg), want); d != "" {
					t.Fatalf("fingerprint multisets diverge:\n%s", d)
				}
				if stats.Executions != runs {
					t.Fatalf("memo accounts for %d executions, exhaustive ran %d", stats.Executions, runs)
				}
				if stats.Replays >= runs {
					t.Errorf("memoization saved nothing: %d replays for %d executions", stats.Replays, runs)
				}
				if stats.StatesPruned == 0 {
					t.Errorf("no subtree pruned on a %d-execution space", runs)
				}

				// The public validating sweep agrees on the count.
				mstats, err := ExploreAlg2(plan, input, sched.Options{Memo: true})
				if err != nil {
					t.Fatalf("ExploreAlg2: %v", err)
				}
				if mstats.Executions != runs {
					t.Fatalf("memoized ExploreAlg2 accounts for %d executions, want %d", mstats.Executions, runs)
				}
			})
		}
	}
}

// TestAlg2MemoPrefixUnion pins the sharded memoized validation sweep:
// per-slice execution counts over any Alg2Roots partition sum to the
// ExploreAlg2 total, with every visited leaf validated.
func TestAlg2MemoPrefixUnion(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	task := ChoiceTask(2)
	plan := planFor(t, task)
	input := task.Inputs[0]
	exh, err := ExploreAlg2(plan, input, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	whole := exh.Executions
	for _, depth := range []int{0, 4} {
		roots, err := Alg2Roots(plan, input, depth)
		if err != nil {
			t.Fatal(err)
		}
		if depth > 0 && len(roots) < 2 {
			t.Fatalf("depth %d partition has %d roots", depth, len(roots))
		}
		stats, err := ExploreAlg2(plan, input, sched.Options{Roots: roots, Memo: true})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if stats.Executions != whole {
			t.Fatalf("depth %d one-call union: %d executions, want %d", depth, stats.Executions, whole)
		}
		total := 0
		for _, root := range roots {
			s, err := ExploreAlg2(plan, input, sched.Options{Roots: [][]int{root}, Memo: true})
			if err != nil {
				t.Fatalf("depth %d root %v: %v", depth, root, err)
			}
			total += s.Executions
		}
		if total != whole {
			t.Fatalf("depth %d: per-root executions sum to %d, want %d", depth, total, whole)
		}
	}
}

// TestAlg2MemoSurfacesViolation ensures a validation failure in a
// visited leaf is not silently pruned away: a plan doctored to emit an
// illegal output must fail the memoized sweep.
func TestAlg2MemoSurfacesViolation(t *testing.T) {
	task := ChoiceTask(2)
	plan := planFor(t, task)
	input := task.Inputs[0]

	// Doctor a copy of the task spec so every full output is illegal,
	// while the plan still runs the original protocol paths.
	bad := *task
	bad.Delta = map[Pair][]Pair{}
	doctored := *plan
	doctored.Task = &bad

	for _, memo := range []bool{false, true} {
		if _, err := ExploreAlg2(&doctored, input, sched.Options{Memo: memo}); err == nil {
			t.Fatalf("memo=%v: sweep accepted a plan whose outputs are all illegal", memo)
		}
	}
}
