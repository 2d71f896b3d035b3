package iis

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sched"
)

// TestUniverseTernaryRangeContraction: the midpoint protocol contracts
// any integer input range, not just binary — spread ≤ range/2^r.
func TestUniverseTernaryRangeContraction(t *testing.T) {
	inputs := [][]int{{0, 4}, {4, 0}, {0, 0}, {4, 4}, {0, 2}, {2, 4}}
	u := NewUniverse(2, 3, inputs, ISOutcomes(2))
	for r := 0; r <= 3; r++ {
		num, den := u.MaxRoundSpread(r)
		// num/den ≤ 4/2^r ⇔ num·2^r ≤ 4·den
		if num*(1<<r) > 4*den {
			t.Errorf("round %d: spread %d/%d exceeds 4/2^%d", r, num, den, r)
		}
	}
}

// TestUniverseViewsNested: a round-r view's seen entries reference only
// round-(r-1) views of the right processes.
func TestUniverseViewsNested(t *testing.T) {
	u := NewUniverse(2, 3, BinaryInputVectors(2), ISOutcomes(2))
	for id := 0; id < u.NumViews(); id++ {
		v := u.View(id)
		if v.Round == 0 {
			continue
		}
		selfSeen := false
		for _, s := range v.Seen {
			sub := u.View(s.View)
			if sub.Round != v.Round-1 {
				t.Fatalf("view %d at round %d references round-%d view", id, v.Round, sub.Round)
			}
			if sub.Pid != s.Pid {
				t.Fatalf("view %d: seen entry pid %d holds view of pid %d", id, s.Pid, sub.Pid)
			}
			if s.Pid == v.Pid {
				selfSeen = true
			}
		}
		if !selfSeen {
			t.Fatalf("view %d does not contain its own previous view", id)
		}
	}
}

// TestUniverseLookupConsistency: Lookup finds exactly the interned views.
func TestUniverseLookupConsistency(t *testing.T) {
	u := NewUniverse(2, 2, BinaryInputVectors(2), ISOutcomes(2))
	for id := 0; id < u.NumViews(); id++ {
		v := u.View(id)
		got := u.Lookup(v.Round, v.Pid, v.Input, v.Seen)
		if got != id {
			t.Fatalf("Lookup of view %d returned %d", id, got)
		}
	}
	if u.Lookup(0, 0, 99, nil) != -1 {
		t.Fatal("Lookup invented a view")
	}
}

// TestRoundWindowPartition: the windows tile 0..N exactly.
func TestRoundWindowPartition(t *testing.T) {
	u := NewUniverse(2, 3, BinaryInputVectors(2), CollectOutcomes(2))
	pos := 0
	for r := 1; r <= u.K; r++ {
		lo, hi := u.RoundWindow(r)
		if lo != pos {
			t.Fatalf("round %d window starts at %d, want %d", r, lo, pos)
		}
		if hi-lo != len(u.Configs[r-1]) {
			t.Fatalf("round %d window size %d, want %d", r, hi-lo, len(u.Configs[r-1]))
		}
		pos = hi
	}
	if pos != Alg4Iterations(u) {
		t.Fatalf("windows cover %d, want N = %d", pos, Alg4Iterations(u))
	}
}

// TestISOutcomesMatchPartitions: ordered partitions and their seen-sets
// are in bijection.
func TestISOutcomesMatchPartitions(t *testing.T) {
	for _, n := range []int{2, 3} {
		parts := OrderedPartitions(n)
		outs := ISOutcomes(n)
		if len(parts) != len(outs) {
			t.Fatalf("n=%d: %d partitions vs %d outcomes", n, len(parts), len(outs))
		}
		dedup := outcomeSet(outs)
		if len(dedup) != len(outs) {
			t.Fatalf("n=%d: duplicate IS outcomes", n)
		}
	}
}

// TestApplyScheduleDeterministic: same schedule, same final config.
func TestApplyScheduleDeterministic(t *testing.T) {
	u := NewUniverse(2, 4, [][]int{{0, 1}}, ISOutcomes(2))
	init, err := u.InitialConfig([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		s := RandomSchedule(2, 4, rng)
		a := u.ApplySchedule(init, s)
		b := u.ApplySchedule(init, s)
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("nondeterministic ApplySchedule")
			}
		}
	}
}

// TestInitialConfigRejectsUnknownInput: inputs outside the universe fail.
func TestInitialConfigRejectsUnknownInput(t *testing.T) {
	u := NewUniverse(2, 1, BinaryInputVectors(2), ISOutcomes(2))
	if _, err := u.InitialConfig([]int{0, 7}); err == nil {
		t.Fatal("unknown input accepted")
	}
}

// TestAlg4SoloLateProcess: an IIS schedule in which process 0 is always
// in the first block alone — process 1 still simulates correctly
// (validity: its decision is within the input range).
func TestAlg4SoloLateProcess(t *testing.T) {
	u := NewUniverse(2, 2, BinaryInputVectors(2), CollectOutcomes(2))
	n := Alg4Iterations(u)
	s := make(Schedule, n)
	for i := range s {
		s[i] = Blocks{{0}, {1}}
	}
	res, err := RunAlg4(u, []int{0, 1}, s)
	if err != nil {
		t.Fatal(err)
	}
	// Process 0 never sees process 1: its estimate must remain 0.
	num, den := u.Estimate(res.Final[0])
	if num != 0 {
		t.Fatalf("solo-ahead process estimate %d/%d, want 0", num, den)
	}
	// Process 1 sees process 0 in every iteration where 0 writes 1.
	n1, d1 := u.Estimate(res.Final[1])
	if n1 < 0 || n1 > d1 {
		t.Fatalf("late process estimate %d/%d out of range", n1, d1)
	}
}

// TestAlg5InputsPreserved: the snapshot vectors only ever contain the
// actual inputs.
func TestAlg5InputsPreserved(t *testing.T) {
	inputs := []int{100, 200, 300}
	for seed := int64(0); seed < 50; seed++ {
		sys, res, err := RunAlg5(inputs, sched.NewRandom(seed))
		if err != nil {
			t.Fatal(err)
		}
		if e := res.Err(); e != nil {
			t.Fatal(e)
		}
		for i, s := range sys.Snaps {
			for j, v := range s {
				if v != NoValue && v != inputs[j] {
					t.Fatalf("seed %d: S_%d[%d] = %d", seed, i, j, v)
				}
			}
		}
	}
}

// TestSortConfigsStringOrder pins sortConfigs to the lexicographic
// order of the "id,id," keys, which is not numeric order: {10} sorts
// before {2}, and {1,10} before {1,2}.
func TestSortConfigsStringOrder(t *testing.T) {
	cs := []Config{{2}, {1, 2}, {10}, {1, 10}, {1}, {3, 0}}
	sortConfigs(cs)
	want := []Config{{1}, {1, 10}, {1, 2}, {10}, {2}, {3, 0}}
	if !reflect.DeepEqual(cs, want) {
		t.Fatalf("sorted %v, want %v", cs, want)
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1].key() >= cs[i].key() {
			t.Fatalf("keys out of order: %q before %q", cs[i-1].key(), cs[i].key())
		}
	}
}

// TestViewKeyFormat pins the intern key format of a view at round 0 and
// after.
func TestViewKeyFormat(t *testing.T) {
	if got := viewKey(0, 1, 1, nil); got != "0|1|1" {
		t.Errorf("round-0 key %q", got)
	}
	if got := viewKey(2, 0, 0, []SeenEntry{{0, 3}, {1, 12}}); got != "2|0|0:3,1:12," {
		t.Errorf("round-2 key %q", got)
	}
}

// TestReinternAllocatesNothing: looking up a view the universe already
// holds — directly, or as the successor view of a reached configuration
// — allocates nothing, and a new view never keeps the caller's scratch
// Seen slice.
func TestReinternAllocatesNothing(t *testing.T) {
	u := NewUniverse(3, 2, BinaryInputVectors(3), ISOutcomes(3))
	existing := u.View(u.Configs[2][0][1])
	if got := testing.AllocsPerRun(100, func() {
		if u.intern(existing) != existing.ID {
			t.Fatal("re-interning returned another id")
		}
	}); got != 0 {
		t.Errorf("re-interning a view allocates %.0f times, want 0", got)
	}
	cfg, sees := u.Configs[1][0], ISOutcomes(3)[0].Sees[2]
	want := u.successorView(2, 2, cfg, sees)
	if got := testing.AllocsPerRun(100, func() {
		if u.successorView(2, 2, cfg, sees) != want {
			t.Fatal("successor view changed id")
		}
	}); got != 0 {
		t.Errorf("an existing successor view allocates %.0f times, want 0", got)
	}

	scratch := []SeenEntry{{Pid: 0, View: 0}}
	id := u.intern(ViewInfo{Round: 9, Pid: 0, Seen: scratch})
	scratch[0].View = 1
	if v := u.View(id); v.Seen[0].View != 0 {
		t.Errorf("interned view aliases the caller's Seen: %+v", v.Seen)
	}
}
