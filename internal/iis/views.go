package iis

import (
	"slices"
	"strconv"
	"strings"
)

// Universe is the state space of a full-information protocol (Algorithm 3)
// over a finite input domain: the interned set of views reachable in any
// execution, and the round-indexed configuration sets
// C_0, C_1, ..., C_k of §7.1 used by Algorithm 4's round-preserving
// enumeration (Eq. 1).
//
// Views are interned: each distinct view gets an integer id, and a view at
// round r is the set of (process, round-(r-1) view id) pairs it saw.
// Alongside each view the universe tracks the midpoint estimate used by
// the ε-agreement decision map, as an exact rational num/2^round.
type Universe struct {
	// N is the number of processes.
	N int
	// K is the number of rounds enumerated.
	K int

	views []ViewInfo
	byKey map[string]int
	// keyBuf and seenBuf are intern's and successorView's scratch.
	keyBuf  []byte
	seenBuf []SeenEntry

	// Configs[r] lists the configurations (one view id per process)
	// reachable at round r, in canonical order. Configs[0] is the set of
	// initial configurations.
	Configs [][]Config

	cfgSets []map[string]bool
}

// Config is a global configuration: entry i is the view id of process i.
type Config []int

// ViewInfo describes one interned view.
type ViewInfo struct {
	// ID is the view's index in the universe.
	ID int
	// Round of the view (0 = initial/input view).
	Round int
	// Pid is the process holding the view.
	Pid int
	// Input is the process input (round 0 only).
	Input int
	// Seen lists (pid, view id) pairs of the previous round (round ≥ 1),
	// sorted by pid.
	Seen []SeenEntry
	// EstNum is the numerator of the midpoint estimate; the denominator
	// is 2^Round. Estimates realize the ε-agreement decision map.
	EstNum int
}

// SeenEntry is one component of a view: process Pid's previous-round view.
type SeenEntry struct {
	Pid  int
	View int
}

// viewKey builds the canonical intern key of a view: "0|pid|input" at
// round 0, "round|pid|pid:view,pid:view,..." after.
func viewKey(round, pid, input int, seen []SeenEntry) string {
	return string(appendViewKey(nil, round, pid, input, seen))
}

// appendViewKey appends viewKey's bytes to b.
func appendViewKey(b []byte, round, pid, input int, seen []SeenEntry) []byte {
	b = strconv.AppendInt(b, int64(round), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, '|')
	if round == 0 {
		return strconv.AppendInt(b, int64(input), 10)
	}
	for _, s := range seen {
		b = strconv.AppendInt(b, int64(s.Pid), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(s.View), 10)
		b = append(b, ',')
	}
	return b
}

// NewUniverse enumerates the full-information protocol's reachable
// configurations for k rounds over all the given initial input vectors,
// with one-round branching given by outcomes (use CollectOutcomes(n) for
// the IC model, ISOutcomes(n) for the IIS model).
func NewUniverse(n, k int, inputVectors [][]int, outcomes []CollectOutcome) *Universe {
	u := &Universe{N: n, K: k, byKey: map[string]int{}}

	// add appends cfg to cs unless seen holds its key. The lookup goes
	// through a reused buffer, so only a new configuration allocates its
	// key and its copy; cfg itself is scratch.
	var keyBuf []byte
	add := func(cs []Config, seen map[string]bool, cfg Config) []Config {
		keyBuf = cfg.appendKey(keyBuf[:0])
		if seen[string(keyBuf)] {
			return cs
		}
		seen[string(keyBuf)] = true
		return append(cs, slices.Clone(cfg))
	}
	cfg := make(Config, n)

	// Round 0: input views.
	var c0 []Config
	seenCfg := map[string]bool{}
	for _, xs := range inputVectors {
		for i := 0; i < n; i++ {
			cfg[i] = u.intern(ViewInfo{Round: 0, Pid: i, Input: xs[i], EstNum: xs[i]})
		}
		c0 = add(c0, seenCfg, cfg)
	}
	sortConfigs(c0)
	u.Configs = append(u.Configs, c0)
	u.cfgSets = append(u.cfgSets, seenCfg)

	for r := 1; r <= k; r++ {
		var next []Config
		nextSeen := map[string]bool{}
		for _, prev := range u.Configs[r-1] {
			for _, oc := range outcomes {
				for i := 0; i < n; i++ {
					cfg[i] = u.successorView(r, i, prev, oc.Sees[i])
				}
				next = add(next, nextSeen, cfg)
			}
		}
		sortConfigs(next)
		u.Configs = append(u.Configs, next)
		u.cfgSets = append(u.cfgSets, nextSeen)
	}
	return u
}

// successorView interns the round-r view of process i that saw the
// previous-round views cfg[j] for j in sees.
func (u *Universe) successorView(r, i int, cfg Config, sees []int) int {
	seen := u.seenBuf[:0]
	for _, j := range sees {
		seen = append(seen, SeenEntry{Pid: j, View: cfg[j]})
	}
	u.seenBuf = seen
	// Midpoint estimate: (min+max)/2 of the seen estimates, scaled to
	// denominator 2^r. A previous-round estimate a/2^(r-1) becomes 2a/2^r.
	lo, hi := 0, 0
	for idx, s := range seen {
		e := u.views[s.View].EstNum
		if idx == 0 || e < lo {
			lo = e
		}
		if idx == 0 || e > hi {
			hi = e
		}
	}
	return u.intern(ViewInfo{Round: r, Pid: i, Seen: seen, EstNum: lo + hi})
}

// intern returns the id of the view, adding it if new. v.Seen may be
// scratch: the lookup allocates nothing, and only a new view stores its
// key and a copy of v.Seen.
func (u *Universe) intern(v ViewInfo) int {
	u.keyBuf = appendViewKey(u.keyBuf[:0], v.Round, v.Pid, v.Input, v.Seen)
	if id, ok := u.byKey[string(u.keyBuf)]; ok {
		return id
	}
	v.ID = len(u.views)
	v.Seen = slices.Clone(v.Seen)
	u.views = append(u.views, v)
	u.byKey[string(u.keyBuf)] = v.ID
	return v.ID
}

// Lookup returns the id of an already-interned view, or -1.
func (u *Universe) Lookup(round, pid, input int, seen []SeenEntry) int {
	var buf [64]byte
	if id, ok := u.byKey[string(appendViewKey(buf[:0], round, pid, input, seen))]; ok {
		return id
	}
	return -1
}

// View returns the interned view with the given id.
func (u *Universe) View(id int) ViewInfo { return u.views[id] }

// NumViews returns the number of distinct views across all rounds.
func (u *Universe) NumViews() int { return len(u.views) }

// Estimate returns the midpoint estimate of view id as (num, den).
func (u *Universe) Estimate(id int) (num, den int) {
	v := u.views[id]
	return v.EstNum, 1 << v.Round
}

// HasConfig reports whether cfg is a reachable round-r configuration.
func (u *Universe) HasConfig(r int, cfg Config) bool {
	var buf [64]byte
	return u.cfgSets[r][string(cfg.appendKey(buf[:0]))]
}

// FlatConfigs returns the round-preserving enumeration (Eq. 1) of all
// configurations of rounds 0..k-1, the iteration space of Algorithm 4:
// iteration ρ (1-based in the paper, 0-based here) corresponds to
// FlatConfigs()[ρ], and the window for simulated round r is exactly the
// block of round-(r-1) configurations.
func (u *Universe) FlatConfigs() []Config {
	var out []Config
	for r := 0; r < u.K; r++ {
		out = append(out, u.Configs[r]...)
	}
	return out
}

// RoundWindow returns the half-open iteration interval [lo, hi) of
// FlatConfigs holding the round-(r-1) configurations used to simulate
// round r ∈ 1..K.
func (u *Universe) RoundWindow(r int) (lo, hi int) {
	for i := 0; i < r-1; i++ {
		lo += len(u.Configs[i])
	}
	return lo, lo + len(u.Configs[r-1])
}

// key renders the configuration as "id,id,...,": its dedup key and its
// sort key.
func (c Config) key() string { return string(c.appendKey(nil)) }

// appendKey appends key's bytes to b.
func (c Config) appendKey(b []byte) []byte {
	for _, id := range c {
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ',')
	}
	return b
}

// sortConfigs sorts configurations into the lexicographic order of their
// keys — string order, not numeric: {10} sorts before {2} — computing
// each key once.
func sortConfigs(cs []Config) {
	type keyed struct {
		key string
		cfg Config
	}
	ks := make([]keyed, len(cs))
	for i, c := range cs {
		ks[i] = keyed{c.key(), c}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i, k := range ks {
		cs[i] = k.cfg
	}
}

// BinaryInputVectors returns all 2^n binary input assignments.
func BinaryInputVectors(n int) [][]int {
	var out [][]int
	for mask := 0; mask < 1<<n; mask++ {
		xs := make([]int, n)
		for i := 0; i < n; i++ {
			xs[i] = (mask >> i) & 1
		}
		out = append(out, xs)
	}
	return out
}
