package labelling

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// procAbs is the abstract per-process state of the Algorithm 6 + labelling
// composition, sufficient to determine all future behaviour: the path
// position, the packed history window of the last Δ+1 bits written (bit j
// of Hist is the bit of round writes()-j), the round in progress, the
// pending operation and the consecutive-solo counter. A finished process
// (Phase == 2) stopped at round Round. The fields are narrow, so the
// joint state is a small map key; BuildValueMap bounds Δ so Hist fits,
// and stepAbs fails rather than wrap the others.
type procAbs struct {
	Pos   int32
	Hist  uint16
	Round uint8
	Phase uint8 // 0 = write pending, 1 = read pending, 2 = done
	C     uint8
}

// writes is the number of writes the process has performed: one per
// round begun, the current one included once its write is done. It is
// the exact count of the other process's writes a read observes (Lemma
// 8.5: the ring arithmetic computes exactly this).
func (p procAbs) writes() int {
	if p.Phase == 0 {
		return int(p.Round) - 1
	}
	return int(p.Round)
}

// level is 2(Round-1)+Phase: the number of operations the process has
// performed. Every stepAbs raises one process's level by exactly one.
func (p procAbs) level() int { return 2*(int(p.Round)-1) + int(p.Phase) }

// maxValueMapDelta is the largest Δ BuildValueMap accepts: procAbs.Hist
// holds the Δ+1-bit history window in 16 bits.
const maxValueMapDelta = 15

type jointAbs struct {
	A, B procAbs
}

// ValueMap is the label→path-position table of the simulated protocol
// complex: the final states of Algorithm 6 over all executions form a
// chromatic path (§8, "protocol graph"); Index orders it from process 0's
// all-solo endpoint. The ε-agreement of Theorem 8.1 decides
// Index[label] / (Len-1), oriented by the inputs.
type ValueMap struct {
	Cfg Alg6Config
	// Index maps each reachable final label to its path position 0..Len-1.
	Index map[Label]int
	// Len is the number of path vertices (distinct final labels).
	Len int
	// PairCount is the number of distinct co-final label pairs (path
	// edges), i.e. distinct complete executions up to indistinguishability.
	PairCount int
}

// BuildValueMap enumerates the reachable joint states of Algorithm 6 (an
// exact breadth-first search of the 2-choice transition graph — which
// process takes the next register operation) and orders the final-state
// complex as a path. It fails if the complex is not a path, which would
// falsify the §8 structure.
//
// Every transition raises the joint level (the sum of the two processes'
// levels) by exactly one, so BFS layer d holds exactly the states of
// level d and a state can only recur within its own layer: the search
// deduplicates one layer at a time, in a set it clears per layer, over
// two reused frontier slices. Final labels are packed into one word
// each (packLabel), so the co-final pairs and the path's adjacency are
// flat sorted slices rather than maps.
//
// The abstract state packs the last Δ+1 bits written into a uint16, so
// Δ must be at most maxValueMapDelta = 15; a larger Δ is an error.
func BuildValueMap(cfg Alg6Config) (*ValueMap, error) {
	if cfg.Delta > maxValueMapDelta {
		return nil, fmt.Errorf("labelling: Δ = %d exceeds %d (a %d-bit history window does not fit the abstract state)", cfg.Delta, maxValueMapDelta, cfg.Delta+1)
	}
	pairs, err := coFinalPairs(cfg)
	if err != nil {
		return nil, err
	}
	return orderPath(cfg, pairs)
}

// edge joins two packed labels.
type edge struct{ u, v uint64 }

func cmpEdge(a, b edge) int {
	if c := cmp.Compare(a.u, b.u); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// packLabel packs a label into one word: Pid in bit 0, Pos in bits
// 1..32 and Round above. Every label of the abstract search fits: Pos
// is an int32 and Round a uint8 there.
func packLabel(l Label) uint64 {
	return uint64(l.Round)<<33 | uint64(uint32(l.Pos))<<1 | uint64(l.Pid)
}

func unpackLabel(k uint64) Label {
	return Label{Pid: int(k & 1), Round: int(k >> 33), Pos: int(int32(uint32(k >> 1)))}
}

// coFinalPairs runs the layered search and returns the distinct
// co-final label pairs (process 0's label, process 1's), sorted.
func coFinalPairs(cfg Alg6Config) ([]edge, error) {
	start := jointAbs{
		A: procAbs{Round: 1, Pos: int32(InitialPos(0))},
		B: procAbs{Round: 1, Pos: int32(InitialPos(1))},
	}
	frontier, next := []jointAbs{start}, []jointAbs(nil)
	seen := map[jointAbs]struct{}{}
	var pairs []edge

	for len(frontier) > 0 {
		clear(seen)
		next = next[:0]
		for _, cur := range frontier {
			if cur.A.Phase == 2 && cur.B.Phase == 2 {
				pairs = append(pairs, edge{
					packLabel(Label{Pid: 0, Round: int(cur.A.Round), Pos: int(cur.A.Pos)}),
					packLabel(Label{Pid: 1, Round: int(cur.B.Round), Pos: int(cur.B.Pos)}),
				})
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
	slices.SortFunc(pairs, cmpEdge)
	return slices.Compact(pairs), nil
}

// orderPath checks that the distinct co-final pairs form a path and
// numbers its vertices from process 0's all-solo endpoint (solo from
// round 1, exits at round Δ, position 0).
func orderPath(cfg Alg6Config, pairs []edge) (*ValueMap, error) {
	// Both directions of every pair, sorted: a vertex's neighbours are
	// one run. Each pair joins a pid-0 label to a pid-1 label and pairs
	// are distinct, so no run repeats a label.
	half := make([]edge, 0, 2*len(pairs))
	for _, e := range pairs {
		half = append(half, e, edge{e.v, e.u})
	}
	slices.SortFunc(half, cmpEdge)
	nbrs := func(v uint64) []edge {
		i, _ := slices.BinarySearchFunc(half, v, func(e edge, v uint64) int { return cmp.Compare(e.u, v) })
		j := i
		for j < len(half) && half[j].u == v {
			j++
		}
		return half[i:j]
	}
	vertices := 0
	for i := range half {
		if i == 0 || half[i].u != half[i-1].u {
			vertices++
		}
	}

	origin := Label{Pid: 0, Round: cfg.Delta, Pos: 0}
	cur := packLabel(origin)
	if d := len(nbrs(cur)); d == 0 {
		return nil, fmt.Errorf("labelling: all-solo endpoint %v unreachable", origin)
	} else if d != 1 {
		return nil, fmt.Errorf("labelling: endpoint %v has degree %d", origin, d)
	}
	index := make(map[Label]int, vertices)
	index[origin] = 0
	var prev uint64
	hasPrev := false
	for i := 1; ; i++ {
		var nxt uint64
		found := 0
		for _, e := range nbrs(cur) {
			if hasPrev && e.v == prev {
				continue
			}
			nxt = e.v
			found++
		}
		if found == 0 {
			break // reached the other endpoint
		}
		if found > 1 {
			return nil, fmt.Errorf("labelling: vertex %v has degree > 2; complex is not a path", unpackLabel(cur))
		}
		index[unpackLabel(nxt)] = i
		prev, cur, hasPrev = cur, nxt, true
	}
	if len(index) != vertices {
		return nil, fmt.Errorf("labelling: path covers %d of %d vertices; complex disconnected", len(index), vertices)
	}
	return &ValueMap{Cfg: cfg, Index: index, Len: len(index), PairCount: len(pairs)}, nil
}

// stepAbs performs self's pending operation. other is read-only; reads
// observe its writes and Hist. It fails rather than wrap when the
// position or round outgrows its narrow type; cfg.Delta ≤
// maxValueMapDelta is the caller's check (BuildValueMap).
func stepAbs(cfg Alg6Config, self, other *procAbs) error {
	switch self.Phase {
	case 0: // write of round Round
		bit := uint16(Bit(int(self.Pos)))
		self.Hist = ((self.Hist << 1) | bit) & ((1 << (cfg.Delta + 1)) - 1)
		self.Phase = 1
		return nil
	case 1: // read of round Round
		r := int(self.Round)
		o := other.writes() // what the ring arithmetic computes (Lemma 8.5)
		sawOther := r <= o
		var bitVal uint64
		if sawOther {
			idx := o - r
			if idx > cfg.Delta {
				return fmt.Errorf("labelling: abstract history index %d > Δ (Corollary 8.2 violated)", idx)
			}
			bitVal = uint64((other.Hist >> idx) & 1)
			self.C = 0
		} else {
			self.C++
		}
		np, err := Step(int(self.Pos), sawOther, bitVal, Pow3(r-1))
		if err != nil {
			return err
		}
		if np > math.MaxInt32 {
			return fmt.Errorf("labelling: abstract state overflow (position %d)", np)
		}
		self.Pos = int32(np)
		if int(self.C) == cfg.Delta || r == cfg.R {
			self.Phase = 2
			return nil
		}
		if self.Round == math.MaxUint8 {
			return fmt.Errorf("labelling: abstract state overflow (round %d)", r)
		}
		self.Round++
		self.Phase = 0
		return nil
	default:
		return fmt.Errorf("labelling: step on finished process")
	}
}

// Value returns the path value of a label as (num, den): its index over
// the path length minus one.
func (vm *ValueMap) Value(l Label) (num, den int, err error) {
	idx, ok := vm.Index[l]
	if !ok {
		return 0, 0, fmt.Errorf("labelling: label %v not in value map", l)
	}
	return idx, vm.Len - 1, nil
}
