package sched

import "errors"

// Instance is one fresh build of a deterministic system for Explore:
// the process closures plus the seams the explorer reads the run
// through.
type Instance struct {
	// Procs are the process closures.
	Procs []ProcFunc
	// State fingerprints the instance's current global state. It is
	// called by the memoized explorer only while every live process is
	// parked between steps (from the scheduler's Next hook, and once
	// after the run completes), so it may read shared state freely.
	// Required when Options.Memo is set; unused otherwise.
	State func() StateKey
	// Leaf extracts one complete execution's contribution to the
	// exploration's aggregate. The Result is pooled — Leaf must not
	// retain it or its slices — and the returned value may become
	// shared immutable memo state: it must be fresh on every call,
	// must be determined by the leaf's canonical state, and is never
	// mutated by the explorer afterwards. A non-nil error stops the
	// exploration, and Explore returns it. Nil Leaf — or a Leaf that
	// only validates, returning nil contributions — explores for the
	// counts alone.
	Leaf func(*Result) (any, error)
}

// Options configures Explore.
type Options struct {
	// Memo selects the canonical-state memoized explorer: a replay DFS
	// that stores each subtree's merged contribution under
	// (Instance.State, depth) and reuses it wherever an equivalent node
	// recurs, replaying once per distinct node instead of once per
	// leaf. Without it, Explore is the exhaustive replay DFS — one
	// replay per execution and Leaf on every one of them — which is
	// the independent oracle the memoized mode is checked against.
	Memo bool
	// MaxSteps bounds each replay as in Config (0 = DefaultMaxSteps).
	MaxSteps int
	// Merge combines two contributions into a new value. It must be
	// pure — no mutation of either argument (memoized contributions of
	// other nodes stay live) — and associative and commutative up to
	// the final aggregate's equality. Required whenever Leaf returns
	// non-nil contributions.
	Merge func(a, b any) any
}

// Stats counts the work an exploration did.
type Stats struct {
	// Executions is the number of complete executions the aggregate
	// accounts for — the leaves of the exhaustive schedule tree.
	Executions int
	// Replays is the number of system runs actually performed: one per
	// execution exhaustively, one per explored node (halted early on
	// memo hits) when memoized.
	Replays int
	// StatesVisited is the number of distinct (canonical state, depth)
	// nodes stored in the memo (0 exhaustively).
	StatesVisited int
	// StatesPruned is the number of subtrees reused from the memo
	// instead of re-explored (0 exhaustively).
	StatesPruned int
}

// errMemoState reports a memoized exploration without the State seam.
var errMemoState = errors.New("sched: Instance.State is required for memoized exploration")

// Explore walks every crash-free interleaving of a deterministic
// system and returns the merged Leaf contributions, the exploration
// counters, and the first error. Because processes are deterministic,
// the execution space is the tree of scheduler choices; both modes walk
// it by replay DFS, re-running the system with a forced prefix of
// choices. factory must build a fresh, fully independent instance
// (fresh shared memory and closures) on every call.
func Explore(factory func() Instance, opts Options) (any, Stats, error) {
	e := &explorer{factory: factory, opts: opts}
	defer func() { e.rn.close() }()
	var total any
	var err error
	if opts.Memo {
		e.memo = make(map[memoKey]memoEntry)
		var leaves int
		total, leaves, err = e.memoDFS(nil)
		e.stats.Executions += leaves
	} else {
		total, err = e.exhaustiveDFS(nil)
	}
	if err != nil {
		return nil, e.stats, err
	}
	return total, e.stats, nil
}

// explorer is the state of one Explore call.
type explorer struct {
	factory func() Instance
	opts    Options
	stats   Stats
	memo    map[memoKey]memoEntry

	// Replay state: one pooled Result per active DFS frame, recycled
	// across sibling subtrees, and one runner whose process slots every
	// replay reuses (a replay is done with it once runInto returns).
	freeRes []*Result
	rn      runner
}

// merge folds a contribution into an aggregate under opts.Merge.
func (e *explorer) merge(into, from any) (any, error) {
	switch {
	case from == nil:
		return into, nil
	case into == nil:
		return from, nil
	case e.opts.Merge == nil:
		// Leaves that only validate (returning nil) need no Merge;
		// combining real contributions without one is a mistake.
		return nil, errors.New("sched: Options.Merge is required to combine non-nil Leaf contributions")
	default:
		return e.opts.Merge(into, from), nil
	}
}

// replay runs one fresh instance under sch into a pooled Result, which
// the caller hands back through release once it no longer reads it.
func (e *explorer) replay(inst Instance, sch Scheduler) (*Result, error) {
	var res *Result
	if k := len(e.freeRes); k > 0 {
		res, e.freeRes = e.freeRes[k-1], e.freeRes[:k-1]
	} else {
		res = &Result{}
	}
	if len(e.rn) != len(inst.Procs) {
		e.rn.close()
		e.rn = newRunner(len(inst.Procs))
	}
	if _, err := runInto(Config{Scheduler: sch, MaxSteps: e.opts.MaxSteps}, inst.Procs, res, e.rn); err != nil {
		return nil, err
	}
	e.stats.Replays++
	return res, nil
}

func (e *explorer) release(res *Result) {
	e.freeRes = append(e.freeRes, res)
}

// exhaustiveDFS replays one execution under prefix, hands it to Leaf,
// and recurses into every scheduler branch the execution did not take
// after the prefix — once per leaf of the tree. The branches are
// collected before recursing, so the replay's Result goes straight back
// to the pool and one Result serves the whole walk.
func (e *explorer) exhaustiveDFS(prefix []int) (any, error) {
	inst := e.factory()
	res, err := e.replay(inst, &Replay{Prefix: prefix})
	if err != nil {
		return nil, err
	}
	e.stats.Executions++
	var contrib any
	if inst.Leaf != nil {
		if contrib, err = inst.Leaf(res); err != nil {
			return nil, err
		}
	}
	branches := untakenBranches(res, len(prefix))
	e.release(res)
	for _, branch := range branches {
		sub, err := e.exhaustiveDFS(branch)
		if err != nil {
			return nil, err
		}
		if contrib, err = e.merge(contrib, sub); err != nil {
			return nil, err
		}
	}
	return contrib, nil
}

// untakenBranches lists the child prefixes of a completed execution:
// one per scheduler branch not taken after the forced prefix, deepest
// decision point first (ordering is irrelevant for coverage). The
// memoized DFS walks the same branches, depth by depth.
func untakenBranches(res *Result, prefixLen int) [][]int {
	var out [][]int
	for i := len(res.Decisions) - 1; i >= prefixLen; i-- {
		for _, alt := range res.EnabledSets[i] {
			if alt > res.Decisions[i].Pid {
				out = append(out, branchAt(res, i, alt))
			}
		}
	}
	return out
}

// branchAt is the prefix that follows res for its first i decisions and
// then schedules alt.
func branchAt(res *Result, i, alt int) []int {
	branch := make([]int, i+1)
	for j := 0; j < i; j++ {
		branch[j] = res.Decisions[j].Pid
	}
	branch[i] = alt
	return branch
}
