package iis

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/sched"
)

// icSystem builds the processes of the generic full-information protocol
// (Algorithm 3) in the IC model: k rounds, each on a fresh array of n
// unbounded SWMR registers; in round r every process writes its view and
// collects the array, reading the registers one by one. Views are looked
// up in the universe (never interned), so membership in the reachable set
// is part of every run: the combinatorial one-round outcome enumeration
// (CollectOutcomes) must cover everything the operational model produces.
func icSystem(u *Universe, inputs []int) ([]sched.ProcFunc, Config) {
	n, k := u.N, u.K
	mems := make([]*memory.Shared, k)
	for r := range mems {
		mems[r] = memory.New(n, 0)
	}
	final := make(Config, n)

	procs := make([]sched.ProcFunc, n)
	for i := 0; i < n; i++ {
		procs[i] = func(p *sched.Proc) error {
			me := p.ID
			view := u.Lookup(0, me, inputs[me], nil)
			if view < 0 {
				return fmt.Errorf("ic: input %d of process %d not in universe", inputs[me], me)
			}
			for r := 1; r <= k; r++ {
				pm := memory.Bind(p, mems[r-1])
				if err := pm.Write(view); err != nil {
					return err
				}
				vals := pm.Collect()
				var seen []SeenEntry
				for j := 0; j < n; j++ {
					if vals[j] == nil {
						continue
					}
					id, ok := vals[j].(int)
					if !ok {
						return fmt.Errorf("ic: register %d holds %T", j, vals[j])
					}
					seen = append(seen, SeenEntry{Pid: j, View: id})
				}
				next := u.Lookup(r, me, 0, seen)
				if next < 0 {
					return fmt.Errorf("ic: process %d reached a round-%d view outside the universe (seen %v)", me, r, seen)
				}
				view = next
			}
			final[me] = view
			return nil
		}
	}
	return procs, final
}

// RunICFullInfo executes Algorithm 3 on the scheduler runtime and returns
// the final configuration.
func RunICFullInfo(u *Universe, inputs []int, scheduler sched.Scheduler) (Config, *sched.Result, error) {
	procs, final := icSystem(u, inputs)
	res, err := sched.Run(sched.Config{Scheduler: scheduler}, procs)
	if err != nil {
		return nil, nil, err
	}
	return final, res, nil
}

// ExploreICFullInfo exhaustively enumerates the interleavings of
// Algorithm 3 (feasible for n = 2 and small k) and calls visit with each
// final configuration.
func ExploreICFullInfo(u *Universe, inputs []int, visit func(Config, *sched.Result)) (int, error) {
	factory := func() sched.Instance {
		procs, final := icSystem(u, inputs)
		return sched.Instance{Procs: procs, Leaf: func(r *sched.Result) (any, error) {
			visit(final, r)
			return nil, nil
		}}
	}
	_, stats, err := sched.Explore(factory, sched.Options{})
	return stats.Executions, err
}
