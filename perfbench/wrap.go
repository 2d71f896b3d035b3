package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// spanHeader carries "trace/parent" from a traced caller to the traced
// handler it calls, so the handler's span joins the caller's trace.
const spanHeader = "Perfbench-Span"

func formatSpanHeader(trace, parent int64) string { return fmt.Sprintf("%d/%d", trace, parent) }

func parseSpanHeader(v string) (trace, parent int64) {
	fmt.Sscanf(v, "%d/%d", &trace, &parent)
	return trace, parent
}

// spanRef names an open span.
type spanRef struct{ trace, span int64 }

// activeSpans maps an experiment id to the handler spans serving it
// right now, so a cache call (made on an engine goroutine that carries
// no request context) can find the request it belongs to.
type activeSpans struct {
	mu sync.Mutex
	m  map[string][]spanRef
}

func (a *activeSpans) push(id string, r spanRef) {
	a.mu.Lock()
	if a.m == nil {
		a.m = map[string][]spanRef{}
	}
	a.m[id] = append(a.m[id], r)
	a.mu.Unlock()
}

func (a *activeSpans) pop(id string, r spanRef) {
	a.mu.Lock()
	refs := a.m[id]
	for i, x := range refs {
		if x == r {
			a.m[id] = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	a.mu.Unlock()
}

// lookup returns the most recent open span for id, or the set-up trace.
func (a *activeSpans) lookup(id string) spanRef {
	a.mu.Lock()
	defer a.mu.Unlock()
	if refs := a.m[id]; len(refs) > 0 {
		return refs[len(refs)-1]
	}
	return spanRef{trace: setupTrace}
}

// tracedHandler records a server-layer span around each call into a
// figuresd handler.
type tracedHandler struct {
	next   http.Handler
	rec    *recorder
	active *activeSpans
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace, parent := parseSpanHeader(r.Header.Get(spanHeader))
	id, end := h.rec.begin(trace, parent, "server", "server.Server.ServeHTTP")
	defer end()
	if exp, ok := strings.CutPrefix(r.URL.Path, "/experiments/"); ok && !r.URL.Query().Has("prefixes") {
		ref := spanRef{trace, id}
		h.active.push(exp, ref)
		defer h.active.pop(exp, ref)
	}
	h.next.ServeHTTP(w, r)
}

// tracedStore records a cache-layer span around each whole-result Get
// and Put. Embedding keeps every other method of the store, so the
// server and coordinator see the same capabilities as untraced.
type tracedStore struct {
	*cache.Store
	rec    *recorder
	active *activeSpans
	puts   atomic.Int64
}

func (t *tracedStore) Get(id string) (experiments.Result, bool) {
	ref := t.active.lookup(id)
	_, end := t.rec.begin(ref.trace, ref.span, "cache", "cache.Store.Get")
	defer end()
	return t.Store.Get(id)
}

func (t *tracedStore) Put(id string, r experiments.Result) error {
	t.puts.Add(1)
	ref := t.active.lookup(id)
	_, end := t.rec.begin(ref.trace, ref.span, "cache", "cache.Store.Put")
	defer end()
	return t.Store.Put(id, r)
}

// tracedTransport records an http-layer span for each request the
// shard coordinator sends, from the call until its body is drained or
// closed. The coordinator's trace id (trace.Header), set by the sweep
// in the spanHeader format, names the parent span; the transport hands
// its own span to the worker in spanHeader.
type tracedTransport struct {
	next http.RoundTripper
	rec  *recorder
	// fetchMs collects each fetch's duration.
	mu      sync.Mutex
	fetchMs []float64
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr, parent := parseSpanHeader(r.Header.Get(trace.Header))
	id, end := t.rec.begin(tr, parent, "http", "GET "+r.URL.Path)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, formatSpanHeader(tr, id))
	start := t.rec.now()
	resp, err := t.next.RoundTrip(r)
	done := func() {
		end()
		t.mu.Lock()
		t.fetchMs = append(t.fetchMs, float64(t.rec.now()-start)/1e6)
		t.mu.Unlock()
	}
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &endOnDone{ReadCloser: resp.Body, done: done}
	return resp, nil
}

// endOnDone calls done once, at EOF or Close, whichever comes first.
type endOnDone struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (e *endOnDone) Read(p []byte) (int, error) {
	n, err := e.ReadCloser.Read(p)
	if err != nil {
		e.once.Do(e.done)
	}
	return n, err
}

func (e *endOnDone) Close() error {
	e.once.Do(e.done)
	return e.ReadCloser.Close()
}
