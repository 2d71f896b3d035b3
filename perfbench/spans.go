package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation (a sweep or a request) share Trace;
// Parent is the span that made the call (0 for the operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// setupTrace is the trace id of spans recorded while setting up; they
// are written out but kept apart from the per-operation figures.
const setupTrace = 0

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now returns nanoseconds since the recorder's epoch.
func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// begin opens a span and returns its id and a function that closes it.
func (r *recorder) begin(trace, parent int64, layer, name string) (int64, func()) {
	if r == nil {
		return 0, func() {}
	}
	start := r.now()
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id, func() {
		end := r.now()
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: start, End: end})
		r.mu.Unlock()
	}
}

// snapshot returns a copy of the spans closed so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// writeSpans stores spans as one JSON object per line in path,
// creating dir first.
func writeSpans(dir, path string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per layer, the summed self time in nanoseconds of
// the spans whose trace is in ops: a span's duration minus the part of
// its interval its child spans cover. Children of one span may overlap
// (a sweep runs experiments in parallel); their union is what is
// subtracted, so the parent never goes negative.
func selfTimes(spans []span, ops map[int64]bool) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if !ops[s.Trace] {
			continue
		}
		out[s.Layer] += float64(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}
