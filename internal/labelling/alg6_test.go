package labelling

import (
	"testing"

	"repro/internal/sched"
)

func TestAlg6RegisterBits(t *testing.T) {
	// Theorem 8.1: Δ = 2 gives two registers of size 6.
	cfg := Alg6Config{Delta: 2, R: 10}
	if got := cfg.RegisterBits(); got != 6 {
		t.Fatalf("RegisterBits = %d, want 6", got)
	}
	if got := cfg.RingSize(); got != 5 {
		t.Fatalf("RingSize = %d, want 5", got)
	}
}

func TestAlg6EncodeDecode(t *testing.T) {
	cfg := Alg6Config{Delta: 2, R: 5}
	for x := 0; x < cfg.RingSize(); x++ {
		for mask := 0; mask < 8; mask++ {
			h := []uint64{uint64(mask & 1), uint64((mask >> 1) & 1), uint64((mask >> 2) & 1)}
			gx, gh := cfg.decode(cfg.encode(x, h))
			if gx != x {
				t.Fatalf("x: got %d want %d", gx, x)
			}
			for j := range h {
				if gh[j] != h[j] {
					t.Fatalf("h[%d]: got %d want %d", j, gh[j], h[j])
				}
			}
		}
	}
}

func TestAlg6RingDist(t *testing.T) {
	cfg := Alg6Config{Delta: 2, R: 5}
	tests := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {4, 0, 1}, {3, 2, 4}, {1, 4, 3},
	}
	for _, tc := range tests {
		if got := cfg.ringDist(tc.a, tc.b); got != tc.want {
			t.Errorf("ringDist(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAlg6RoundRobinLockstep(t *testing.T) {
	// In lockstep both processes see each other every round: they
	// simulate the all-mutual IS execution and finish all R rounds.
	cfg := Alg6Config{Delta: 2, R: 6}
	labels, done, res, err := RunAlg6(cfg, &sched.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Err(); e != nil {
		t.Fatal(e)
	}
	if !done[0] || !done[1] {
		t.Fatal("processes did not finish")
	}
	for i := 0; i < 2; i++ {
		if labels[i].Round != cfg.R {
			t.Errorf("process %d finished at round %d, want %d", i, labels[i].Round, cfg.R)
		}
	}
	d := labels[0].Pos - labels[1].Pos
	if d != 1 && d != -1 {
		t.Errorf("lockstep positions %d, %d not adjacent", labels[0].Pos, labels[1].Pos)
	}
}

func TestAlg6SoloExitsAfterDelta(t *testing.T) {
	// A process running alone simulates Δ consecutive solo rounds and
	// quits, at the extreme position of its side.
	cfg := Alg6Config{Delta: 2, R: 10}
	labels, done, _, err := RunAlg6(cfg, sched.Solo{Pid: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !done[0] {
		t.Fatal("solo process did not finish")
	}
	if labels[0].Round != cfg.Delta {
		t.Errorf("solo exit round = %d, want Δ = %d", labels[0].Round, cfg.Delta)
	}
	if labels[0].Pos != 0 {
		t.Errorf("solo position = %d, want 0", labels[0].Pos)
	}
}

func TestAlg6StepComplexity(t *testing.T) {
	// O(R) steps per process: 2 register operations per simulated round.
	cfg := Alg6Config{Delta: 2, R: 12}
	_, _, res, err := RunAlg6(cfg, &sched.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res.Steps[i] > 2*cfg.R {
			t.Errorf("process %d took %d steps, want ≤ %d", i, res.Steps[i], 2*cfg.R)
		}
	}
}

func TestAlg6Lemma87DistinctExecutions(t *testing.T) {
	// Lemma 8.7: the simulation generates at least 2^R distinct IS
	// executions of length R (Δ ≥ 2). The constructed schedules yield
	// 2^R distinct final label pairs.
	for _, r := range []int{3, 5, 7} {
		cfg := Alg6Config{Delta: 2, R: r}
		seen := map[[2]Label]bool{}
		for _, seq := range Lemma87Schedules(r) {
			labels, done, res, err := RunAlg6(cfg, &sched.Replay{Prefix: seq})
			if err != nil {
				t.Fatal(err)
			}
			if e := res.Err(); e != nil {
				t.Fatal(e)
			}
			if !done[0] || !done[1] {
				t.Fatal("unfinished processes")
			}
			if labels[0].Round != r || labels[1].Round != r {
				t.Fatalf("R=%d: execution exited early: rounds %d, %d", r, labels[0].Round, labels[1].Round)
			}
			seen[[2]Label{labels[0], labels[1]}] = true
		}
		if len(seen) != 1<<r {
			t.Errorf("R=%d: %d distinct executions, want 2^R = %d", r, len(seen), 1<<r)
		}
	}
}

func TestAlg6RandomSchedulesLandOnPath(t *testing.T) {
	// Every concrete run's final labels appear in the abstract value map,
	// and co-final labels are path-adjacent: the exact state-graph
	// enumeration and the operational runtime agree.
	cfg := Alg6Config{Delta: 2, R: 7}
	vm, err := BuildValueMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 150; seed++ {
		labels, done, res, err := RunAlg6(cfg, sched.NewRandom(seed))
		if err != nil {
			t.Fatal(err)
		}
		if e := res.Err(); e != nil {
			t.Fatalf("seed %d: %v", seed, e)
		}
		if !done[0] || !done[1] {
			t.Fatalf("seed %d: unfinished", seed)
		}
		i0, ok0 := vm.Index[labels[0]]
		i1, ok1 := vm.Index[labels[1]]
		if !ok0 || !ok1 {
			t.Fatalf("seed %d: labels %v, %v not in value map", seed, labels[0], labels[1])
		}
		d := i0 - i1
		if d != 1 && d != -1 {
			t.Fatalf("seed %d: path indices %d, %d not adjacent", seed, i0, i1)
		}
	}
}

func TestBuildValueMapPathShape(t *testing.T) {
	for _, r := range []int{3, 4, 6} {
		cfg := Alg6Config{Delta: 2, R: r}
		vm, err := BuildValueMap(cfg)
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		// Proposition 8.1: Ω(2^R) distinct executions, so the path has at
		// least 2^R edges.
		if vm.PairCount < 1<<r {
			t.Errorf("R=%d: %d path edges, want ≥ 2^R = %d", r, vm.PairCount, 1<<r)
		}
		if vm.Len != len(vm.Index) {
			t.Errorf("R=%d: inconsistent length", r)
		}
		// The origin endpoint is process 0's all-solo label at index 0.
		origin := Label{Pid: 0, Round: cfg.Delta, Pos: 0}
		if vm.Index[origin] != 0 {
			t.Errorf("R=%d: origin index = %d", r, vm.Index[origin])
		}
		// Colors alternate along the path.
		byIndex := make([]Label, vm.Len)
		for l, i := range vm.Index {
			byIndex[i] = l
		}
		for i := 1; i < vm.Len; i++ {
			if byIndex[i].Pid == byIndex[i-1].Pid {
				t.Fatalf("R=%d: consecutive path vertices share pid at %d", r, i)
			}
		}
	}
}

func TestBuildValueMapGrowth(t *testing.T) {
	// The path length grows exponentially in R (Ω(2^R)) but is bounded by
	// the full complex (3^R+1).
	prev := 0
	for r := 2; r <= 8; r++ {
		vm, err := BuildValueMap(Alg6Config{Delta: 2, R: r})
		if err != nil {
			t.Fatal(err)
		}
		if vm.Len <= prev {
			t.Errorf("R=%d: path length %d did not grow (prev %d)", r, vm.Len, prev)
		}
		if vm.Len > Pow3(r)+1 {
			t.Errorf("R=%d: path length %d exceeds full complex %d", r, vm.Len, Pow3(r)+1)
		}
		prev = vm.Len
	}
}

// TestBuildValueMapPinned pins the value map's size for Δ = 2 at R =
// 3..10 — the path vertices and co-final pairs E9 and E10 print.
func TestBuildValueMapPinned(t *testing.T) {
	want := []struct{ r, len, pairs int }{
		{3, 24, 23}, {4, 58, 57}, {5, 140, 139}, {6, 338, 337},
		{7, 816, 815}, {8, 1970, 1969}, {9, 4756, 4755}, {10, 11482, 11481},
	}
	for _, w := range want {
		vm, err := BuildValueMap(Alg6Config{Delta: 2, R: w.r})
		if err != nil {
			t.Fatalf("R=%d: %v", w.r, err)
		}
		if vm.Len != w.len || vm.PairCount != w.pairs {
			t.Errorf("R=%d: Len %d PairCount %d, want %d %d", w.r, vm.Len, vm.PairCount, w.len, w.pairs)
		}
	}
}

// TestStepAbsRaisesOneLevel checks the invariant BuildValueMap's
// per-layer dedup rests on: over every reachable joint state, each
// stepAbs raises the stepping process's level 2(Round-1)+Phase by
// exactly one and leaves the other process untouched.
func TestStepAbsRaisesOneLevel(t *testing.T) {
	for _, cfg := range []Alg6Config{{Delta: 2, R: 5}, {Delta: 3, R: 4}} {
		start := jointAbs{
			A: procAbs{Round: 1, Pos: int32(InitialPos(0))},
			B: procAbs{Round: 1, Pos: int32(InitialPos(1))},
		}
		seen := map[jointAbs]bool{start: true}
		stack := []jointAbs{start}
		steps := 0
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for actor := 0; actor < 2; actor++ {
				n := cur
				self, other := &n.A, &n.B
				if actor == 1 {
					self, other = other, self
				}
				if self.Phase == 2 {
					continue
				}
				before, otherBefore := *self, *other
				if err := stepAbs(cfg, self, other); err != nil {
					t.Fatalf("%+v: step of %+v: %v", cfg, before, err)
				}
				steps++
				if self.level() != before.level()+1 || *other != otherBefore {
					t.Fatalf("%+v: step %+v -> %+v (other %+v -> %+v) is not one level",
						cfg, before, *self, otherBefore, *other)
				}
				if !seen[n] {
					seen[n] = true
					stack = append(stack, n)
				}
			}
		}
		if steps == 0 {
			t.Fatalf("%+v: no transitions checked", cfg)
		}
	}
}

// TestStepAbsOverflow: a field that outgrows its narrow type is an
// error, never a silent wrap.
func TestStepAbsOverflow(t *testing.T) {
	if _, err := BuildValueMap(Alg6Config{Delta: 16, R: 3}); err == nil {
		t.Error("a 17-bit history window was accepted")
	}
	cfg := Alg6Config{Delta: 2, R: 30}
	big := procAbs{Round: 21, Phase: 1, Pos: 1 << 30}
	if err := stepAbs(cfg, &big, &procAbs{Round: 1}); err == nil {
		t.Errorf("position overflow wrapped to %d", big.Pos)
	}
	last := procAbs{Round: 255, Phase: 1}
	if err := stepAbs(Alg6Config{Delta: 2, R: 300}, &last, &procAbs{Round: 255, Phase: 1}); err == nil {
		t.Errorf("round overflow wrapped to %d", last.Round)
	}
}
