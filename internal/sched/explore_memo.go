package sched

// This file implements the memoized mode of Explore (Options.Memo): a
// replay DFS that consults a visited-set keyed by (canonical state,
// depth) and prunes subtrees whose aggregate contribution is already
// known.
//
// The exhaustive mode replays the system once per leaf. The memoized
// mode replays once per *node*: a recorder scheduler fingerprints the
// global state (via the instance's State seam) at every decision point
// past the forced prefix, and the moment a fingerprint is found in the
// memo the run halts — the common prefix is never re-run to a leaf,
// the memo supplies the whole subtree's contribution and leaf count.
// Unexplored sibling branches are then descended bottom-up, and the
// completed contribution of every node on the path is stored at its
// depth on the way back. Determinism makes this sound: equal canonical
// state at equal depth implies an isomorphic remaining subtree, so
// contributions transfer — exactly (for states reached by commuting
// independent steps) or up to process relabelling (when the State seam
// applies the symmetry reduction, see Canonicalizer), which is why
// Leaf contributions and Merge must be relabelling-invariant for
// reduced systems.

// memoKey identifies a node of the schedule tree up to canonical-state
// equivalence: same fingerprint at the same depth ⇒ same subtree
// contribution (depth pins the remaining step budget).
type memoKey struct {
	state StateKey
	depth int
}

// memoEntry is a completed node: its subtree's merged contribution and
// leaf count. contrib is immutable once stored.
type memoEntry struct {
	contrib any
	leaves  int
}

// memoProbe is the recorder scheduler of one replay: it forces the
// prefix, records the canonical state at every decision point at or
// past the prefix, and halts the run the moment a state is already in
// the memo.
type memoProbe struct {
	replay Replay
	state  func() StateKey
	memo   map[memoKey]memoEntry
	from   int // depth of the first decision not forced by the prefix
	depth  int
	keys   []StateKey // keys[d-from] is the state before decision d
	hit    bool
	entry  memoEntry
}

func (m *memoProbe) Next(enabled []int) Decision {
	if m.depth >= m.from {
		k := m.state()
		if e, ok := m.memo[memoKey{state: k, depth: m.depth}]; ok {
			m.hit, m.entry = true, e
			return Decision{Pid: Halt}
		}
		m.keys = append(m.keys, k)
	}
	m.depth++
	return m.replay.Next(enabled)
}

// memoDFS explores the subtree under prefix, returning its merged
// contribution and the number of executions it accounts for.
func (e *explorer) memoDFS(prefix []int) (any, int, error) {
	inst := e.factory()
	if inst.State == nil {
		return nil, 0, errMemoState
	}
	probe := &memoProbe{
		replay: Replay{Prefix: prefix},
		state:  inst.State,
		memo:   e.memo,
		from:   len(prefix),
	}
	res, err := e.replay(inst, probe)
	if err != nil {
		return nil, 0, err
	}

	// top is the depth the replay reached: the depth of the memo hit,
	// or the leaf's depth on a complete execution.
	top := len(res.Decisions)
	var contrib any
	var leaves int
	if probe.hit {
		e.stats.StatesPruned++
		contrib, leaves = probe.entry.contrib, probe.entry.leaves
	} else {
		// A complete execution: one leaf. Store its terminal state too,
		// so sibling paths converging on it halt immediately. (The probe
		// never fingerprints terminal states — they have no decision
		// point — so an equivalent leaf may already be stored; keep the
		// first.)
		if inst.Leaf != nil {
			if contrib, err = inst.Leaf(res); err != nil {
				return nil, 0, err
			}
		}
		leaves = 1
		tk := memoKey{state: inst.State(), depth: top}
		if _, ok := e.memo[tk]; !ok {
			e.memo[tk] = memoEntry{contrib: contrib, leaves: leaves}
			e.stats.StatesVisited++
		}
	}

	// Bottom-up: descend every untaken branch below each decision
	// point, deepest first, folding sibling subtrees into this path's
	// contribution; each node's completed entry is stored at its depth.
	// Sibling recursions store only at depths strictly below their own
	// prefix length (> i), so no entry written here is ever overwritten.
	for i := top - 1; i >= len(prefix); i-- {
		chosen := res.Decisions[i].Pid
		for _, alt := range res.EnabledSets[i] {
			if alt <= chosen {
				continue
			}
			sub, subLeaves, err := e.memoDFS(branchAt(res, i, alt))
			if err != nil {
				return nil, 0, err
			}
			if contrib, err = e.merge(contrib, sub); err != nil {
				return nil, 0, err
			}
			leaves += subLeaves
		}
		e.memo[memoKey{state: probe.keys[i-len(prefix)], depth: i}] = memoEntry{contrib: contrib, leaves: leaves}
		e.stats.StatesVisited++
	}

	e.release(res)
	return contrib, leaves, nil
}
