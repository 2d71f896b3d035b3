package experiments

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/task"
)

// E15 is the exhaustive Algorithm 2 validation sweep: Theorem 1.2
// checked constructively over every crash-free interleaving of the
// universal construction on one solvable task, each execution's
// outputs validated against the task specification (task.CheckRun) —
// visited leaves directly, memo-pruned ones through their canonical
// twins. A violation anywhere surfaces as the exploration's error, so
// a success really did validate every interleaving.

// e15Choice and e15Input pin E15's instance: Algorithm 2 on the
// 2-value choice task with the mixed input (0, 1) — the input whose
// executions traverse every ε-agreement outcome class (full input
// seen, other input missing, and the 0 < d < 1 path walk).
const e15Choice = 2

var e15Input = task.Pair{0, 1}

// e15Plan builds E15's execution plan at one choice-task size. Plan
// construction is deterministic and cheap next to the exploration, so
// every caller (sweep, finish) rebuilds it rather than sharing mutable
// state.
func e15Plan(choice int) (*task.Plan, error) {
	tk := task.ChoiceTask(choice)
	sub, ok := tk.FindSolvableSubset()
	if !ok {
		return nil, fmt.Errorf("experiments: task %s not solvable", tk.Name)
	}
	return tk.BuildPlan(sub)
}

// e15InputOf extracts E15's input pair from a point of its family.
func e15InputOf(ps ParamSet) task.Pair {
	return task.Pair{ps.Int("i0"), ps.Int("i1")}
}

// alg2SweepAgg is the order-insensitive aggregate of the exhaustive
// Algorithm 2 sweep: the number of interleavings explored and
// validated. Counts of disjoint subtrees sum to the whole-space total.
type alg2SweepAgg struct {
	Execs int
}

// Merge folds b into a.
func (a *alg2SweepAgg) Merge(b *alg2SweepAgg) {
	a.Execs += b.Execs
}

// finishE15 renders the E15 family's table at one (choice, input)
// point from a fully-merged aggregate — the one rendering path shared
// by the registry runner and every parameterized point, which is what
// makes their bytes identical. At the default
// point (e15Choice, e15Input) the rendering is byte-for-byte the fixed
// E15 table's.
func finishE15(a *alg2SweepAgg, choice int, input task.Pair) (*Table, error) {
	plan, err := e15Plan(choice)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E15",
		Title:   "Thm 1.2 exhaustive — Algorithm 2 on every interleaving, choice task",
		Headers: []string{"quantity", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"task", plan.Task.Name},
		[]string{"input", fmt.Sprintf("(%d, %d)", input[0], input[1])},
		[]string{"path length L", itoa(plan.L)},
		[]string{"ε-agreement k = L/2", itoa(plan.L / 2)},
		[]string{"interleavings validated", itoa(a.Execs)},
	)
	t.Notes = append(t.Notes,
		"every crash-free interleaving's outputs legal for the task (CheckRun); a violation anywhere fails the sweep")
	return t, nil
}

// sweepAlg2 validates the whole Algorithm 2 schedule tree at (choice,
// input) through the canonical-state memo — the one implementation
// behind E15's runner and family points.
func sweepAlg2(choice int, input task.Pair) (*alg2SweepAgg, sched.Stats, error) {
	plan, err := e15Plan(choice)
	if err != nil {
		return nil, sched.Stats{}, err
	}
	stats, err := task.ExploreAlg2(plan, input, sched.Options{Memo: true})
	if err != nil {
		return nil, stats, err
	}
	return &alg2SweepAgg{Execs: stats.Executions}, stats, nil
}

// runE15At evaluates the E15 family whole at one (choice, input) point
// — the registry runner at the default point, and the Family.Run
// behind GET /experiments/E15?c=...
func runE15At(choice int, input task.Pair) (*Table, error) {
	a, stats, err := sweepAlg2(choice, input)
	if err != nil {
		return nil, err
	}
	t, err := finishE15(a, choice, input)
	if t != nil {
		t.memo = stats
	}
	return t, err
}

// Theorem12Exhaustive (E15) runs the whole sweep at the fixed point.
func Theorem12Exhaustive() (*Table, error) {
	return runE15At(e15Choice, e15Input)
}
