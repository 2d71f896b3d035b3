package iis

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/sched"
)

// bgCell is the (value, done) pair written by Algorithm 5 in every
// iteration: the process's input for the simulated IS round and whether it
// has already obtained its snapshot.
type bgCell struct {
	Val  int
	Done bool
}

// NoValue marks an absent entry (⊥) in a snapshot vector.
const NoValue = -1

// Alg5System is one instance of the Borowsky-Gafni snapshot algorithm
// adapted to the IC model (Algorithm 5): n processes simulate one round of
// the IS model with n write/collect iterations on fresh memories
// M_1..M_n. Snaps[i][j] is x_j if process i's simulated immediate snapshot
// contains process j's input, NoValue (⊥) otherwise.
type Alg5System struct {
	N      int
	Inputs []int
	Snaps  [][]int
	mems   []*memory.Shared
}

// NewAlg5System builds a fresh instance.
func NewAlg5System(inputs []int) *Alg5System {
	n := len(inputs)
	s := &Alg5System{
		N:      n,
		Inputs: append([]int(nil), inputs...),
		Snaps:  make([][]int, n),
		mems:   make([]*memory.Shared, n),
	}
	for rho := range s.mems {
		s.mems[rho] = memory.New(n, 0)
	}
	return s
}

// Procs returns the n process functions.
func (s *Alg5System) Procs() []sched.ProcFunc {
	procs := make([]sched.ProcFunc, s.N)
	for i := range procs {
		procs[i] = s.proc
	}
	return procs
}

func (s *Alg5System) proc(p *sched.Proc) error {
	n, i := s.N, p.ID
	si := make([]int, n)
	for j := range si {
		si[j] = NoValue
	}
	done := false
	for rho := 1; rho <= n; rho++ {
		pm := memory.Bind(p, s.mems[rho-1])
		// Line 3: write (x_i, b_i).
		if err := pm.Write(bgCell{Val: s.Inputs[i], Done: done}); err != nil {
			return err
		}
		// Line 4: collect.
		vals := pm.Collect()
		if done {
			continue
		}
		// Line 5: exactly n+1-ρ processes seen without a snapshot?
		var fresh []int
		for j := 0; j < n; j++ {
			cell, ok := vals[j].(bgCell)
			if !ok {
				continue // ⊥
			}
			if cell.Val != s.Inputs[j] {
				return fmt.Errorf("alg5: register %d holds input %d, want %d", j, cell.Val, s.Inputs[j])
			}
			if !cell.Done {
				fresh = append(fresh, j)
			}
		}
		if len(fresh) == n+1-rho {
			// Lines 6-11: adopt the fresh entries as the snapshot.
			for _, j := range fresh {
				si[j] = s.Inputs[j]
			}
			done = true
		}
	}
	if !done {
		return fmt.Errorf("alg5: process %d finished %d iterations without a snapshot", i, n)
	}
	s.Snaps[i] = si
	return nil
}

// RunAlg5 executes Algorithm 5 under the scheduler and returns the system.
func RunAlg5(inputs []int, scheduler sched.Scheduler) (*Alg5System, *sched.Result, error) {
	sys := NewAlg5System(inputs)
	res, err := sched.Run(sched.Config{Scheduler: scheduler}, sys.Procs())
	if err != nil {
		return nil, nil, err
	}
	return sys, res, nil
}

// ExploreAlg5 enumerates all interleavings (feasible for n = 2) and calls
// visit on each completed system.
func ExploreAlg5(inputs []int, visit func(*Alg5System, *sched.Result)) (int, error) {
	factory := func() sched.Instance {
		sys := NewAlg5System(inputs)
		return sched.Instance{Procs: sys.Procs(), Leaf: func(r *sched.Result) (any, error) {
			visit(sys, r)
			return nil, nil
		}}
	}
	_, stats, err := sched.Explore(factory, sched.Options{})
	return stats.Executions, err
}

// CheckImmediateSnapshots validates the immediate-snapshot properties of
// §7 ("Preliminaries") on the snapshots of the correct processes:
//
//   - Validity:          S_i[j] ∈ {x_j, ⊥};
//   - Self-containment:  S_i[i] ≠ ⊥;
//   - Inclusion:         S_i ⊆ S_j or S_j ⊆ S_i;
//   - Immediacy:         S_i[j] ≠ ⊥ ⇒ S_j ⊆ S_i.
func CheckImmediateSnapshots(inputs []int, snaps [][]int, correct []bool) error {
	n := len(inputs)
	subset := func(a, b []int) bool {
		for j := 0; j < n; j++ {
			if a[j] != NoValue && b[j] != a[j] {
				return false
			}
		}
		return true
	}
	for i := 0; i < n; i++ {
		if !correct[i] {
			continue
		}
		si := snaps[i]
		if si == nil {
			return fmt.Errorf("process %d has no snapshot", i)
		}
		if si[i] != inputs[i] {
			return fmt.Errorf("self-containment: S_%d[%d] = %d", i, i, si[i])
		}
		for j := 0; j < n; j++ {
			if si[j] != NoValue && si[j] != inputs[j] {
				return fmt.Errorf("validity: S_%d[%d] = %d, want %d or ⊥", i, j, si[j], inputs[j])
			}
		}
		for j := 0; j < n; j++ {
			if i == j || !correct[j] || snaps[j] == nil {
				continue
			}
			if !subset(si, snaps[j]) && !subset(snaps[j], si) {
				return fmt.Errorf("inclusion: S_%d and S_%d incomparable: %v vs %v", i, j, si, snaps[j])
			}
			if si[j] != NoValue && !subset(snaps[j], si) {
				return fmt.Errorf("immediacy: S_%d contains %d but S_%d ⊄ S_%d", i, j, j, i)
			}
		}
	}
	return nil
}
