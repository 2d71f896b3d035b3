package trace

import (
	"context"
	"fmt"
	"regexp"
	"sync"
	"testing"
	"time"
)

// TestJournalBasics: Start sets What, Add appends in order, Get
// snapshots, unknown ids report absent.
func TestJournalBasics(t *testing.T) {
	j := NewJournal(4, 8)
	if _, ok := j.Get("nope"); ok {
		t.Fatal("Get on an empty journal reported a trace")
	}
	j.Start("r1", "GET /experiments/E2")
	j.Add("r1", Event{Kind: KindCacheMiss})
	j.Add("r1", Event{Kind: KindDone, Detail: "status 200"})
	tr, ok := j.Get("r1")
	if !ok {
		t.Fatal("trace r1 missing")
	}
	if tr.ID != "r1" || tr.What != "GET /experiments/E2" {
		t.Fatalf("trace header = %q %q", tr.ID, tr.What)
	}
	if len(tr.Events) != 2 || tr.Events[0].Kind != KindCacheMiss || tr.Events[1].Kind != KindDone {
		t.Fatalf("events = %+v", tr.Events)
	}
	for i, ev := range tr.Events {
		if ev.At.IsZero() {
			t.Errorf("event %d not timestamped", i)
		}
	}
	if tr.Start.IsZero() {
		t.Error("trace start not stamped")
	}
	// Start is idempotent: a second Start neither resets events nor
	// overwrites a non-empty What.
	j.Start("r1", "something else")
	tr, _ = j.Get("r1")
	if tr.What != "GET /experiments/E2" || len(tr.Events) != 2 {
		t.Fatalf("re-Start mutated the trace: %+v", tr)
	}
}

// TestJournalAutoStart: recording against an unknown id creates the
// trace — a coordinator deep in the stack never has to know whether
// the edge Started first — and a later Start fills in What.
func TestJournalAutoStart(t *testing.T) {
	j := NewJournal(4, 8)
	j.Add("r9", Event{Kind: KindRetry})
	tr, ok := j.Get("r9")
	if !ok || len(tr.Events) != 1 {
		t.Fatalf("auto-started trace = %+v, ok=%v", tr, ok)
	}
	j.Start("r9", "run E2")
	if tr, _ := j.Get("r9"); tr.What != "run E2" {
		t.Fatalf("late Start did not fill What: %q", tr.What)
	}
}

// TestJournalRingEviction: past the ring cap the oldest request is
// evicted — and only the oldest, in insertion order, no matter which
// trace events keep landing on.
func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(3, 8)
	for i := 1; i <= 3; i++ {
		j.Start(fmt.Sprintf("r%d", i), "w")
	}
	// Recording on the oldest does not refresh its position: the ring
	// is insertion-ordered, not recency-ordered.
	j.Add("r1", Event{Kind: KindRetry})
	j.Start("r4", "w")
	if _, ok := j.Get("r1"); ok {
		t.Fatal("oldest request survived past the ring cap")
	}
	for i := 2; i <= 4; i++ {
		if _, ok := j.Get(fmt.Sprintf("r%d", i)); !ok {
			t.Fatalf("r%d evicted out of order", i)
		}
	}
	if j.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j.Len())
	}
	if j.Evicted() != 1 {
		t.Fatalf("Evicted = %d, want 1", j.Evicted())
	}
	// Traces lists the survivors oldest-first.
	trs := j.Traces()
	if len(trs) != 3 || trs[0].ID != "r2" || trs[2].ID != "r4" {
		t.Fatalf("Traces order = %v", []string{trs[0].ID, trs[1].ID, trs[2].ID})
	}
}

// TestJournalEventCap: events past the per-request cap are dropped
// and counted, never retained — the journal's memory is bounded even
// against a pathological request.
func TestJournalEventCap(t *testing.T) {
	j := NewJournal(4, 3)
	for i := 0; i < 10; i++ {
		j.Add("r1", Event{Kind: KindRetry, Detail: fmt.Sprintf("attempt %d", i)})
	}
	tr, _ := j.Get("r1")
	if len(tr.Events) != 3 {
		t.Fatalf("retained %d events, cap 3", len(tr.Events))
	}
	if tr.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped)
	}
	// The first events are the ones kept: the start of a request
	// explains it better than the tail of a retry storm.
	if tr.Events[0].Detail != "attempt 0" {
		t.Fatalf("kept events = %+v", tr.Events)
	}
}

// TestJournalConcurrentIsolation: parallel requests recording into
// one journal must never interleave events across request IDs — the
// per-request streams stay exactly what each goroutine recorded, in
// its order. Run with -race, this is also the data-race gate for the
// whole recording path (Start, Add, Get, Traces, eviction).
func TestJournalConcurrentIsolation(t *testing.T) {
	const (
		writers       = 8
		eventsPer     = 200
		journalCap    = writers // every live writer's trace stays resident
		eventCap      = eventsPer
		readerPollMax = 50
	)
	j := NewJournal(journalCap, eventCap)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("req-%d", g)
			j.Start(id, fmt.Sprintf("writer %d", g))
			for i := 0; i < eventsPer; i++ {
				j.Add(id, Event{
					Kind:   KindWorkerSelected,
					Worker: fmt.Sprintf("worker-%d", g),
					Detail: fmt.Sprintf("w%d-%d", g, i),
				})
			}
		}(g)
	}
	// Concurrent readers exercise snapshotting under recording.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < readerPollMax; i++ {
			j.Traces()
			j.Len()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done

	for g := 0; g < writers; g++ {
		id := fmt.Sprintf("req-%d", g)
		tr, ok := j.Get(id)
		if !ok {
			t.Fatalf("trace %s missing", id)
		}
		if len(tr.Events) != eventsPer {
			t.Fatalf("%s: %d events, want %d", id, len(tr.Events), eventsPer)
		}
		wantWorker := fmt.Sprintf("worker-%d", g)
		for i, ev := range tr.Events {
			if ev.Worker != wantWorker {
				t.Fatalf("%s event %d leaked from another request: %+v", id, i, ev)
			}
			if want := fmt.Sprintf("w%d-%d", g, i); ev.Detail != want {
				t.Fatalf("%s event %d out of order: got %q, want %q", id, i, ev.Detail, want)
			}
		}
	}
}

// TestNilJournalAndEmptyID: a nil journal and an empty request ID are
// both inert — recording sites carry no enabled-checks.
func TestNilJournalAndEmptyID(t *testing.T) {
	var j *Journal
	j.Start("r1", "w")
	j.Add("r1", Event{Kind: KindDone})
	if _, ok := j.Get("r1"); ok {
		t.Fatal("nil journal returned a trace")
	}
	if j.Len() != 0 || j.Evicted() != 0 || j.Traces() != nil {
		t.Fatal("nil journal reported state")
	}
	j2 := NewJournal(2, 2)
	j2.Start("", "w")
	j2.Add("", Event{Kind: KindDone})
	if j2.Len() != 0 {
		t.Fatal("empty id created a trace")
	}
}

// TestGetSnapshotIsolation: the snapshot Get returns must not alias
// the journal's live event slice.
func TestGetSnapshotIsolation(t *testing.T) {
	j := NewJournal(2, 8)
	j.Add("r1", Event{Kind: KindCacheHit})
	tr, _ := j.Get("r1")
	tr.Events[0].Kind = "mutated"
	if tr2, _ := j.Get("r1"); tr2.Events[0].Kind != KindCacheHit {
		t.Fatal("snapshot aliases journal state")
	}
}

// TestNewID: ids are 16 lowercase hex chars and do not collide over a
// journal-retention-sized sample.
func TestNewID(t *testing.T) {
	form := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if !form.MatchString(id) {
			t.Fatalf("NewID() = %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("NewID() collided after %d draws: %q", i, id)
		}
		seen[id] = true
	}
}

// TestContextPlumbing: WithID/IDFrom round-trip, empty id is a no-op,
// and an ID survives context derivation the way it must to cross the
// singleflight's detached-context boundary.
func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if got := IDFrom(ctx); got != "" {
		t.Fatalf("IDFrom(background) = %q", got)
	}
	if got := IDFrom(WithID(ctx, "")); got != "" {
		t.Fatalf("empty WithID attached an id: %q", got)
	}
	ctx = WithID(ctx, "abc123")
	if got := IDFrom(ctx); got != "abc123" {
		t.Fatalf("IDFrom = %q", got)
	}
	child, cancel := context.WithTimeout(ctx, time.Hour)
	defer cancel()
	if got := IDFrom(child); got != "abc123" {
		t.Fatalf("IDFrom(derived) = %q", got)
	}
}
