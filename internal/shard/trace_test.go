package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/trace"
)

// kindSet collapses a trace to the set of event kinds it recorded.
func kindSet(tr trace.Trace) map[string]bool {
	out := make(map[string]bool)
	for _, ev := range tr.Events {
		out[ev.Kind] = true
	}
	return out
}

// TestShardedTraceEndToEnd is the tracing acceptance gate at package
// level: a sharded run under a coordinator journal produces one trace
// per experiment whose ID also names the request in the journal of
// the worker that served it (header propagation), with a
// worker_selected event annotated with the worker and in-flight count
// and a fetch event naming the worker.
func TestShardedTraceEndToEnd(t *testing.T) {
	ids := []string{"E1", "E2"}
	j1, j2 := trace.NewJournal(0, 0), trace.NewJournal(0, 0)
	reg1, _ := syntheticRegistry(ids...)
	w1 := httptest.NewServer(server.New(server.Options{Registry: reg1, Journal: j1}))
	t.Cleanup(w1.Close)
	reg2, _ := syntheticRegistry(ids...)
	w2 := httptest.NewServer(server.New(server.Options{Registry: reg2, Journal: j2}))
	t.Cleanup(w2.Close)

	journal := trace.NewJournal(0, 0)
	localReg, _ := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
		Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), ids); err != nil {
		t.Fatal(err)
	}

	traces := journal.Traces()
	if len(traces) != len(ids) {
		t.Fatalf("coordinator journal holds %d traces, want %d", len(traces), len(ids))
	}
	for _, tr := range traces {
		if !strings.HasPrefix(tr.What, "run E") {
			t.Fatalf("trace What = %q", tr.What)
		}
		var fetchedBy string
		for _, ev := range tr.Events {
			switch ev.Kind {
			case trace.KindWorkerSelected:
				if ev.Worker == "" || !strings.Contains(ev.Detail, "in-flight") {
					t.Fatalf("selection event missing worker/load: %+v", ev)
				}
			case trace.KindFetch:
				if ev.Worker == "" {
					t.Fatalf("fetch event missing worker: %+v", ev)
				}
				fetchedBy = ev.Worker
			}
		}
		if fetchedBy == "" {
			t.Fatalf("%s: no fetch event in %+v", tr.What, tr.Events)
		}
		// The same ID names this request on the worker that served it —
		// the evidence the Repro-Request-ID header crossed over.
		wj := map[string]*trace.Journal{w1.URL: j1, w2.URL: j2}[fetchedBy]
		if wj == nil {
			t.Fatalf("fetch names unknown worker %q", fetchedBy)
		}
		wtr, ok := wj.Get(tr.ID)
		if !ok {
			t.Fatalf("serving worker's journal has no trace %s (header not propagated?)", tr.ID)
		}
		if kinds := kindSet(wtr); !kinds[trace.KindRequest] || !kinds[trace.KindDone] {
			t.Fatalf("worker span for %s lacks request/done: %+v", tr.ID, wtr.Events)
		}
	}
}

// TestWholeFetchTraceRetryAndFallback: a fleet of one broken worker
// and one dead worker journals the whole story — selection, retry
// with the failure detail, eviction of the dead worker, and the local
// fallback that finally served the experiment.
func TestWholeFetchTraceRetryAndFallback(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)

	journal := trace.NewJournal(0, 0)
	reg, _ := syntheticRegistry("E1")
	coord, err := New(Options{
		Workers: []string{broken.URL},
		Local:   experiments.Options{Registry: reg, Jobs: 1},
		Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.RunOne(context.Background(), "E1", experiments.ParamSet{})
	if err != nil || res.Err != nil {
		t.Fatalf("run = %+v, %v", res, err)
	}

	traces := journal.Traces()
	if len(traces) != 1 {
		t.Fatalf("journal holds %d traces, want 1", len(traces))
	}
	kinds := kindSet(traces[0])
	for _, want := range []string{trace.KindWorkerSelected, trace.KindRetry, trace.KindLocalFallback} {
		if !kinds[want] {
			t.Errorf("no %s event in %+v", want, traces[0].Events)
		}
	}
	var retryDetail string
	for _, ev := range traces[0].Events {
		if ev.Kind == trace.KindRetry {
			retryDetail = ev.Detail
		}
	}
	if !strings.Contains(retryDetail, "status 500") {
		t.Errorf("retry detail = %q, want the failure's status", retryDetail)
	}
}

// TestServerBackendTraceSharesID: mounted as a server backend
// (figuresd -peers), the coordinator journals under the ID the
// serving layer minted — the shared-journal wiring that makes a
// front-door /trace/{id} show both layers.
func TestServerBackendTraceSharesID(t *testing.T) {
	const id = "E1"
	fleetReg, _ := syntheticRegistry(id)
	w := newWorker(t, fleetReg)

	journal := trace.NewJournal(0, 0)
	localReg, _ := syntheticRegistry(id)
	coord, err := New(Options{
		Workers: []string{w.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
		Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	frontReg, _ := syntheticRegistry(id)
	front := httptest.NewServer(server.New(server.Options{
		Registry: frontReg,
		Backend:  coord.RunOne,
		Journal:  journal,
	}))
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/experiments/" + id + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reqID := resp.Header.Get(trace.Header)
	if reqID == "" {
		t.Fatal("front door echoed no trace ID")
	}
	tr, ok := journal.Get(reqID)
	if !ok {
		t.Fatalf("shared journal has no trace %s", reqID)
	}
	kinds := kindSet(tr)
	// One span holds both layers: the serving layer's request/done and
	// the coordinator's selection/fetch.
	for _, want := range []string{trace.KindRequest, trace.KindWorkerSelected, trace.KindFetch, trace.KindDone} {
		if !kinds[want] {
			t.Errorf("no %s event in the shared span: %+v", want, tr.Events)
		}
	}
}
