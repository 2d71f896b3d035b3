package msgpass

import (
	"fmt"
	"slices"
	"testing"
)

func TestTAugmentedRingNeighbours(t *testing.T) {
	ring, err := NewTAugmentedRing(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	succ := ring.Succ(0)
	want := []int{1, 2, 3}
	if len(succ) != len(want) {
		t.Fatalf("Succ(0) = %v", succ)
	}
	for i := range want {
		if succ[i] != want[i] {
			t.Fatalf("Succ(0) = %v, want %v", succ, want)
		}
	}
	pred := ring.Pred(0)
	wantP := []int{4, 5, 6}
	for i := range wantP {
		if pred[i] != wantP[i] {
			t.Fatalf("Pred(0) = %v, want %v", pred, wantP)
		}
	}
}

func TestTAugmentedRingWraparound(t *testing.T) {
	ring, err := NewTAugmentedRing(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	succ := ring.Succ(4)
	want := []int{0, 1}
	for i := range want {
		if succ[i] != want[i] {
			t.Fatalf("Succ(4) = %v, want %v", succ, want)
		}
	}
}

func TestTAugmentedRingRejectsBadParams(t *testing.T) {
	cases := [][2]int{{2, 1}, {4, 2}, {5, 0}, {6, 3}}
	for _, c := range cases {
		if _, err := NewTAugmentedRing(c[0], c[1]); err == nil {
			t.Errorf("NewTAugmentedRing(%d,%d) accepted", c[0], c[1])
		}
	}
}

func TestRingConnectivity(t *testing.T) {
	// Figure 3 / §6 phase 2: the t-augmented ring is (t+1)-connected.
	cases := [][2]int{{5, 1}, {5, 2}, {6, 2}, {7, 2}, {7, 3}, {9, 4}}
	for _, c := range cases {
		ring, err := NewTAugmentedRing(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if !IsKConnected(ring, c[1]+1) {
			t.Errorf("ring(n=%d,t=%d) not %d-connected", c[0], c[1], c[1]+1)
		}
	}
}

func TestRingConnectivityTight(t *testing.T) {
	// Removing a node's t+1 successors disconnects it, so the ring is not
	// (t+2)-connected when n is large enough for the successors to be a
	// cut.
	ring, err := NewTAugmentedRing(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if IsKConnected(ring, 3) {
		t.Error("ring(6,1) reported 3-connected; its vertex connectivity is 2")
	}
}

func TestCompleteConnectivity(t *testing.T) {
	if !IsKConnected(Complete{Nodes: 5}, 4) {
		t.Error("complete graph on 5 nodes not 4-connected")
	}
}

func TestStronglyConnectedWithout(t *testing.T) {
	ring, err := NewTAugmentedRing(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !StronglyConnectedWithout(ring, map[int]bool{3: true}) {
		t.Error("ring(6,1) minus one node should stay connected")
	}
	if StronglyConnectedWithout(ring, map[int]bool{1: true, 2: true}) {
		t.Error("removing both successors of node 0 must disconnect it")
	}
}

// TestRingNeighboursMatchDefinition checks Succ and Pred against their
// definitions for Complete and every valid t-augmented ring with n =
// 3..9: j is a successor of i iff it lies 1..t+1 steps ahead (any other
// node, for Complete), i is then a predecessor of j, and both lists are
// strictly ascending.
func TestRingNeighboursMatchDefinition(t *testing.T) {
	check := func(name string, topo Topology, link func(i, j int) bool) {
		t.Helper()
		n := topo.N()
		for i := 0; i < n; i++ {
			var succ, pred []int
			for j := 0; j < n; j++ {
				if link(i, j) {
					succ = append(succ, j)
				}
				if link(j, i) {
					pred = append(pred, j)
				}
			}
			if got := topo.Succ(i); !slices.Equal(got, succ) {
				t.Errorf("%s: Succ(%d) = %v, want %v", name, i, got, succ)
			}
			if got := topo.Pred(i); !slices.Equal(got, pred) {
				t.Errorf("%s: Pred(%d) = %v, want %v", name, i, got, pred)
			}
		}
	}
	for n := 3; n <= 9; n++ {
		check(fmt.Sprintf("Complete(%d)", n), Complete{Nodes: n}, func(i, j int) bool { return i != j })
		for tt := 1; 2*tt < n; tt++ {
			ring, err := NewTAugmentedRing(n, tt)
			if err != nil {
				t.Fatalf("n=%d t=%d: %v", n, tt, err)
			}
			check(fmt.Sprintf("ring(%d,%d)", n, tt), ring, func(i, j int) bool {
				d := (j - i + n) % n
				return d >= 1 && d <= tt+1
			})
		}
	}
}
