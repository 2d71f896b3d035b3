package labelling

import (
	"fmt"
	"maps"
	"testing"
)

// refBuildValueMap is the map-based construction BuildValueMap replaced,
// kept as the reference for its packed path ordering: the same layered
// search, with the co-final pairs in a set of Label pairs, the
// adjacency as a map of neighbour slices and an unsized Index.
func refBuildValueMap(cfg Alg6Config) (*ValueMap, error) {
	start := jointAbs{
		A: procAbs{Round: 1, Pos: int32(InitialPos(0))},
		B: procAbs{Round: 1, Pos: int32(InitialPos(1))},
	}
	frontier, next := []jointAbs{start}, []jointAbs(nil)
	seen := map[jointAbs]struct{}{}
	pairs := map[[2]Label]bool{}
	for len(frontier) > 0 {
		clear(seen)
		next = next[:0]
		for _, cur := range frontier {
			if cur.A.Phase == 2 && cur.B.Phase == 2 {
				la := Label{Pid: 0, Round: int(cur.A.Round), Pos: int(cur.A.Pos)}
				lb := Label{Pid: 1, Round: int(cur.B.Round), Pos: int(cur.B.Pos)}
				pairs[[2]Label{la, lb}] = true
				continue
			}
			for actor := 0; actor < 2; actor++ {
				n := cur
				self, other := &n.A, &n.B
				if actor == 1 {
					self, other = other, self
				}
				if self.Phase == 2 {
					continue
				}
				if err := stepAbs(cfg, self, other); err != nil {
					return nil, err
				}
				if _, ok := seen[n]; !ok {
					seen[n] = struct{}{}
					next = append(next, n)
				}
			}
		}
		frontier, next = next, frontier
	}

	adj := map[Label][]Label{}
	for p := range pairs {
		adj[p[0]] = append(adj[p[0]], p[1])
		adj[p[1]] = append(adj[p[1]], p[0])
	}
	origin := Label{Pid: 0, Round: cfg.Delta, Pos: 0}
	if _, ok := adj[origin]; !ok {
		return nil, fmt.Errorf("labelling: all-solo endpoint %v unreachable", origin)
	}
	if len(adj[origin]) != 1 {
		return nil, fmt.Errorf("labelling: endpoint %v has degree %d", origin, len(adj[origin]))
	}
	index := map[Label]int{origin: 0}
	prev, cur := Label{}, origin
	hasPrev := false
	for i := 1; ; i++ {
		var nxt Label
		found := 0
		for _, nb := range adj[cur] {
			if hasPrev && nb == prev {
				continue
			}
			nxt = nb
			found++
		}
		if found == 0 {
			break
		}
		if found > 1 {
			return nil, fmt.Errorf("labelling: vertex %v has degree > 2; complex is not a path", cur)
		}
		index[nxt] = i
		prev, cur, hasPrev = cur, nxt, true
	}
	if len(index) != len(adj) {
		return nil, fmt.Errorf("labelling: path covers %d of %d vertices; complex disconnected", len(index), len(adj))
	}
	return &ValueMap{Cfg: cfg, Index: index, Len: len(index), PairCount: len(pairs)}, nil
}

// TestBuildValueMapMatchesReference: the packed path ordering numbers
// every label exactly as the map-based reference does.
func TestBuildValueMapMatchesReference(t *testing.T) {
	var cfgs []Alg6Config
	for r := 3; r <= 9; r++ {
		cfgs = append(cfgs, Alg6Config{Delta: 2, R: r})
	}
	for r := 3; r <= 6; r++ {
		cfgs = append(cfgs, Alg6Config{Delta: 3, R: r})
	}
	for _, cfg := range cfgs {
		got, err := BuildValueMap(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		want, err := refBuildValueMap(cfg)
		if err != nil {
			t.Fatalf("%+v: reference: %v", cfg, err)
		}
		if got.Len != want.Len || got.PairCount != want.PairCount {
			t.Errorf("%+v: Len %d PairCount %d, reference %d %d", cfg, got.Len, got.PairCount, want.Len, want.PairCount)
		}
		if !maps.Equal(got.Index, want.Index) {
			t.Errorf("%+v: Index differs from the reference", cfg)
		}
	}
}

// TestPackLabelRoundTrip: unpackLabel inverts packLabel over the
// field ranges of the abstract search (a uint8 round, an int32 position).
func TestPackLabelRoundTrip(t *testing.T) {
	for _, l := range []Label{
		{0, 0, 0}, {1, 2, 0}, {0, 1, 3}, {1, 255, 1<<31 - 1}, {0, 10, 59048},
	} {
		if got := unpackLabel(packLabel(l)); got != l {
			t.Errorf("unpack(pack(%v)) = %v", l, got)
		}
	}
}
