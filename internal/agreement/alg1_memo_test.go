package agreement

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

// alg1FP fingerprints one completed Algorithm 1 execution in
// relabelling-invariant terms: the per-process (input, decision,
// decided, final register) tuples, sorted. Sorting is what makes the
// fingerprint legal under the memoized explorer's symmetry reduction —
// a pruned subtree's leaves may differ from their memoized twins
// exactly by a process relabelling.
func alg1FP(ar *Alg1Run) string {
	regs := ar.FinalRegisters()
	pair := make([]string, 2)
	for i := 0; i < 2; i++ {
		pair[i] = fmt.Sprintf("in%d out%d/%d dec%v reg%d",
			ar.Inputs[i], ar.Outs[i].Num, ar.Outs[i].Den, ar.Decided[i], regs[i])
	}
	sort.Strings(pair)
	return fmt.Sprint(pair)
}

// alg1Leaf is alg1FP as a one-element Counts contribution.
func alg1Leaf(ar *Alg1Run) (any, error) { return schedtest.Counts{alg1FP(ar): 1}, nil }

// alg1Exhaustive collects the exhaustive fingerprint multiset and run
// count for one (k, inputs) cell.
func alg1Exhaustive(t *testing.T, k int, inputs [2]uint64) (schedtest.Counts, int) {
	t.Helper()
	counts := schedtest.Counts{}
	runs, err := visitAlg1(k, inputs, func(ar *Alg1Run) {
		counts.Add(alg1FP(ar))
	})
	if err != nil {
		t.Fatalf("ExploreAlg1(k=%d, %v): %v", k, inputs, err)
	}
	return counts, runs
}

func alg1MemoGrid() []struct {
	k      int
	inputs [2]uint64
} {
	return []struct {
		k      int
		inputs [2]uint64
	}{
		{1, [2]uint64{0, 1}},
		{1, [2]uint64{1, 1}},
		{2, [2]uint64{0, 1}},
		{2, [2]uint64{0, 0}},
		{3, [2]uint64{0, 1}},
	}
}

// TestAlg1MemoMatchesExhaustive pins the memoized Algorithm 1 sweep to
// the exhaustive one on a (k, inputs) grid: identical fingerprint
// multisets, identical execution counts, and genuinely fewer replays.
func TestAlg1MemoMatchesExhaustive(t *testing.T) {
	for _, tc := range alg1MemoGrid() {
		name := fmt.Sprintf("k%d_in%d%d", tc.k, tc.inputs[0], tc.inputs[1])
		t.Run(name, func(t *testing.T) {
			want, runs := alg1Exhaustive(t, tc.k, tc.inputs)
			agg, stats, err := ExploreAlg1(tc.k, tc.inputs,
				sched.Options{Memo: true, Merge: schedtest.Merge}, alg1Leaf)
			if err != nil {
				t.Fatalf("ExploreAlg1: %v", err)
			}
			got := schedtest.AsCounts(agg)
			if d := schedtest.Diff(got, want); d != "" {
				t.Fatalf("fingerprint multisets diverge:\n%s", d)
			}
			if stats.Executions != runs {
				t.Fatalf("memo accounts for %d executions, exhaustive ran %d", stats.Executions, runs)
			}
			if stats.Replays >= runs {
				t.Errorf("memoization saved nothing: %d replays for %d executions", stats.Replays, runs)
			}
			if stats.StatesPruned == 0 {
				t.Errorf("no subtree was pruned on a %d-execution space", runs)
			}
		})
	}
}

// TestAlg1MemoAggregatesSpec runs the memoized sweep with a
// specification-checking leaf: every visited execution must satisfy
// 1/(2k+1)-agreement, and a violation would stop the sweep with the
// leaf's error.
func TestAlg1MemoAggregatesSpec(t *testing.T) {
	for _, tc := range alg1MemoGrid() {
		_, stats, err := ExploreAlg1(tc.k, tc.inputs, sched.Options{Memo: true}, func(ar *Alg1Run) (any, error) {
			return nil, ar.Check(tc.k)
		})
		if err != nil {
			t.Fatalf("k=%d inputs=%v: %v", tc.k, tc.inputs, err)
		}
		if stats.Executions == 0 {
			t.Fatalf("k=%d inputs=%v: no executions", tc.k, tc.inputs)
		}
	}
}
