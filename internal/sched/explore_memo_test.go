package sched_test

// The sched half of the memoized-vs-exhaustive differential layer
// for a grid of small deterministic systems, the memoized explorer
// must produce the exact leaf-fingerprint multiset and execution count
// of the exhaustive replay DFS while actually replaying fewer runs.
//
// Fingerprints are state-determined and relabelling-invariant (sorted
// per-process outcomes), never decision sequences: a pruned subtree's
// leaves are reached through other decision sequences than the
// memoized twin standing in for them.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

// ringSys is a deterministic n-process system rich enough to make
// leaves differ: each process alternates reading its clockwise
// neighbour's register and writing its own accumulator back, all
// under step-handshake atomicity. Its State seam fingerprints
// (ops-done, accumulator, register) per process.
type ringSys struct {
	regs []uint64
	acc  []uint64
	ops  []int
	k    int
	mod  uint64
	// ordered disables the relabelling reduction: the ring's
	// neighbour relation is only rotation-symmetric, so for n > 2 the
	// sorted (arbitrary-permutation) reduction would be unsound.
	ordered bool
}

func newRingSys(n, k int, mod uint64, ordered bool) *ringSys {
	return &ringSys{
		regs:    make([]uint64, n),
		acc:     make([]uint64, n),
		ops:     make([]int, n),
		k:       k,
		mod:     mod,
		ordered: ordered,
	}
}

func (s *ringSys) procs() []sched.ProcFunc {
	n := len(s.regs)
	procs := make([]sched.ProcFunc, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = func(p *sched.Proc) error {
			for r := 0; r < s.k; r++ {
				p.Step()
				v := s.regs[(i+1)%n]
				s.acc[i] = (s.acc[i] + v + 1) % s.mod
				s.ops[i]++
				p.Step()
				s.regs[i] = s.acc[i]
				s.ops[i]++
			}
			return nil
		}
	}
	return procs
}

func (s *ringSys) state() sched.StateKey {
	var c sched.Canonicalizer
	for i := range s.regs {
		c.Proc(sched.MixKey(sched.KeySeed(), uint64(s.ops[i]), s.acc[i], s.regs[i]))
	}
	if s.ordered {
		return c.KeyOrdered()
	}
	return c.Key()
}

// leafFP is the relabelling-invariant outcome fingerprint: the sorted
// per-process (acc, reg) pairs plus the run flags.
func (s *ringSys) leafFP(r *sched.Result) string {
	pairs := make([]string, len(s.regs))
	for i := range s.regs {
		pairs[i] = fmt.Sprintf("%d/%d", s.acc[i], s.regs[i])
	}
	if !s.ordered {
		sort.Strings(pairs)
	}
	return fmt.Sprintf("%v d=%v b=%v", pairs, r.Deadlocked, r.BudgetExceeded)
}

// asymSys is a plain step system with per-process step counts. Its
// per-process component folds the process's remaining program (total
// step count) in, which is what keeps the sorted reduction sound for
// asymmetric counts: components of processes running different
// programs can never be confused.
type asymSys struct {
	taken  []int
	totals []int
}

func newAsymSys(totals []int) *asymSys {
	return &asymSys{taken: make([]int, len(totals)), totals: totals}
}

func (s *asymSys) procs() []sched.ProcFunc {
	procs := make([]sched.ProcFunc, len(s.totals))
	for i := range s.totals {
		i := i
		procs[i] = func(p *sched.Proc) error {
			for k := 0; k < s.totals[i]; k++ {
				p.Step()
				s.taken[i]++
			}
			return nil
		}
	}
	return procs
}

func (s *asymSys) state() sched.StateKey {
	var c sched.Canonicalizer
	for i := range s.totals {
		c.Proc(sched.MixKey(sched.KeySeed(), uint64(s.taken[i]), uint64(s.totals[i])))
	}
	return c.Key()
}

func (s *asymSys) leafFP(r *sched.Result) string {
	fin := make([]string, len(s.totals))
	for i := range s.totals {
		fin[i] = fmt.Sprintf("%d/%d", s.taken[i], s.totals[i])
	}
	sort.Strings(fin)
	return fmt.Sprintf("%v d=%v b=%v", fin, r.Deadlocked, r.BudgetExceeded)
}

// memoCase is one row of the differential grid: an Instance factory
// exposing the State seam that both exploration modes run.
type memoCase struct {
	name string
	memo func() sched.Instance
}

func memoGrid() []memoCase {
	var cases []memoCase
	for _, cfg := range []struct {
		n, k    int
		mod     uint64
		ordered bool
	}{
		{n: 2, k: 2, mod: 3, ordered: false},
		{n: 2, k: 3, mod: 5, ordered: false},
		{n: 2, k: 2, mod: 2, ordered: false},
		{n: 3, k: 2, mod: 3, ordered: true},
	} {
		cfg := cfg
		cases = append(cases, memoCase{
			name: fmt.Sprintf("ring/n=%d,k=%d,mod=%d,ordered=%v", cfg.n, cfg.k, cfg.mod, cfg.ordered),
			memo: func() sched.Instance {
				s := newRingSys(cfg.n, cfg.k, cfg.mod, cfg.ordered)
				return sched.Instance{
					Procs: s.procs(),
					State: s.state,
					Leaf:  schedtest.Leaf(s.leafFP),
				}
			},
		})
	}
	for _, totals := range [][]int{{2, 3}, {3, 3}, {2, 2, 2}} {
		totals := totals
		cases = append(cases, memoCase{
			name: fmt.Sprintf("steps/%v", totals),
			memo: func() sched.Instance {
				s := newAsymSys(totals)
				return sched.Instance{
					Procs: s.procs(),
					State: s.state,
					Leaf:  schedtest.Leaf(s.leafFP),
				}
			},
		})
	}
	return cases
}

// exhaustiveCounts runs the exhaustive oracle over the very Instance
// factory the memoized side uses, so both modes explore the identical
// system and fingerprint leaves with the same Leaf.
func exhaustiveCounts(t *testing.T, mc memoCase) (schedtest.Counts, int) {
	t.Helper()
	agg, stats, err := sched.Explore(mc.memo, sched.Options{Merge: schedtest.Merge})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replays != stats.Executions || stats.StatesVisited != 0 {
		t.Fatalf("exhaustive counters %+v: want one replay per execution and no memo", stats)
	}
	return schedtest.AsCounts(agg), stats.Executions
}

// TestMemoMatchesExhaustive is the core differential property: same
// aggregate multiset, same execution count, strictly fewer replays
// than exhaustive runs, and real pruning on every grid row.
func TestMemoMatchesExhaustive(t *testing.T) {
	for _, mc := range memoGrid() {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			want, runs := exhaustiveCounts(t, mc)
			agg, stats, err := sched.Explore(mc.memo, sched.Options{Memo: true, Merge: schedtest.Merge})
			if err != nil {
				t.Fatal(err)
			}
			got := schedtest.AsCounts(agg)
			if d := schedtest.Diff(got, want); d != "" {
				t.Fatalf("fingerprint multisets differ:\n%s", d)
			}
			if stats.Executions != runs {
				t.Fatalf("memo accounts for %d executions, exhaustive ran %d", stats.Executions, runs)
			}
			if stats.Replays >= runs {
				t.Fatalf("memoized mode replayed %d times for %d exhaustive runs — no savings", stats.Replays, runs)
			}
			if stats.StatesPruned == 0 {
				t.Fatalf("no subtrees pruned on a branchy grid row (visited %d states)", stats.StatesVisited)
			}
			if stats.StatesVisited == 0 {
				t.Fatal("no states recorded")
			}
		})
	}
}

// TestMemoConfigErrors pins the configuration contracts: a memoized
// exploration needs the State seam, and non-nil Leaf contributions
// need a Merge in either mode.
func TestMemoConfigErrors(t *testing.T) {
	s := newAsymSys([]int{1, 1})
	if _, _, err := sched.Explore(func() sched.Instance {
		return sched.Instance{Procs: s.procs()}
	}, sched.Options{Memo: true}); err == nil {
		t.Fatal("missing State seam not rejected")
	}
	for _, memo := range []bool{false, true} {
		if _, _, err := sched.Explore(func() sched.Instance {
			sys := newAsymSys([]int{1, 1})
			return sched.Instance{Procs: sys.procs(), State: sys.state, Leaf: schedtest.Leaf(sys.leafFP)}
		}, sched.Options{Memo: memo}); err == nil {
			t.Fatalf("memo=%v: Leaf without Merge not rejected", memo)
		}
	}
}

// TestMemoCountsAloneWithoutLeaf: nil Leaf explores for the counters
// alone (the E15 shape, where only the execution count and the
// per-leaf validation matter).
func TestMemoCountsAloneWithoutLeaf(t *testing.T) {
	factory := func() sched.Instance {
		s := newAsymSys([]int{3, 3})
		return sched.Instance{Procs: s.procs(), State: s.state}
	}
	_, whole, err := sched.Explore(factory, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runs := whole.Executions
	agg, stats, err := sched.Explore(factory, sched.Options{Memo: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg != nil {
		t.Fatalf("nil-Leaf aggregate = %v, want nil", agg)
	}
	if stats.Executions != runs {
		t.Fatalf("memo counts %d executions, exhaustive ran %d", stats.Executions, runs)
	}
	if stats.Replays >= runs || stats.StatesPruned == 0 {
		t.Fatalf("no memoization savings: %+v for %d runs", stats, runs)
	}
}
