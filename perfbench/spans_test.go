package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Layer: "client", Start: 0, End: 100},
		// Two overlapping children cover [10, 70): 60 of the parent's 100.
		{ID: 2, Parent: 1, Trace: 1, Layer: "core", Start: 10, End: 50},
		{ID: 3, Parent: 1, Trace: 1, Layer: "core", Start: 30, End: 70},
		// A grandchild sticking out of its parent is clipped to it.
		{ID: 4, Parent: 3, Trace: 1, Layer: "cache", Start: 60, End: 90},
		// Another trace, not asked for.
		{ID: 5, Trace: 2, Layer: "client", Start: 0, End: 1000},
	}
	got := selfTimes(spans, map[int64]bool{1: true})
	want := map[string]float64{"client": 40, "core": 40 + 30, "cache": 30}
	for layer, ns := range want {
		if got[layer] != ns {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], ns)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want only %v", got, want)
	}
}

func TestRecorderNilIsSilent(t *testing.T) {
	var r *recorder
	id, end := r.begin(1, 0, "client", "x")
	end()
	if id != 0 || r.snapshot() != nil {
		t.Errorf("nil recorder recorded a span")
	}
}
