// Package shard distributes an experiment run across a fleet of
// figuresd workers: the HTTP fan-out coordinator the serving layer
// (internal/server) was built for. Each experiment is fetched from a
// worker via GET /experiments/{id}?format=json, decoded with
// experiments.DecodeJSON, and merged back in request order — and
// because the JSON wire form is a pure function of experiment outputs,
// sharded output is byte-identical to a local run, the invariant every
// test and CI gate here pins.
//
// The coordinator owns worker health end to end:
//
//   - startup: every worker's /healthz is probed concurrently; a
//     worker that fails the probe starts unhealthy and is never
//     selected. Its /stats in-flight count (server.StatsResponse)
//     seeds the load accounting, so a worker that is already busy
//     serving other clients starts deprioritized.
//   - selection: least-loaded — the healthy untried worker with the
//     fewest in-flight requests (scraped baseline + the coordinator's
//     own accounting) wins. A bounded per-worker in-flight cap
//     (DefaultMaxInFlight) keeps one slow worker from serializing the
//     batch: once a worker is saturated, work flows to its peers.
//   - failure: every request carries its own timeout. A transport
//     error (connection refused, reset, EOF — a killed worker) evicts
//     the worker; an HTTP-level failure (non-200, undecodable body,
//     mismatched id) only fails the attempt. Either way the
//     experiment fails over to the next worker, trying each worker
//     at most once. Eviction is not forever: a coordinator can
//     outlive a worker restart (cmd/figuresd -peers runs one for the
//     daemon's whole life), so after DefaultReviveAfter a live
//     request is allowed to re-try an evicted worker, and one success
//     restores it to full rotation.
//   - fallback: an experiment that exhausts the fleet — including the
//     whole fleet being unreachable — runs locally through the
//     in-process engine with the coordinator's Local options, so a
//     sharded run degrades to a local run rather than failing.
//
// Deterministic experiment failures are reproduced by the fallback:
// a worker reports them as HTTP 500, the coordinator fails over and
// finally re-runs locally, producing the same failed Result (and the
// same encoded bytes) a local run would have.
//
// The unit of distribution is one request: an experiment id at one
// parameter point (RunOne; the zero experiments.ParamSet is the fixed
// experiment, and Run is RunOne over a list of ids at that point).
// Every memoized exploration space explores locally in milliseconds,
// far below the cost of the HTTP hop, so the fleet spreads whole
// experiments across workers rather than splitting any one of them.
// A ParamSet carries its own family, so the coordinator needs no
// family map: the fallback hands the pair to experiments.RunPoint.
//
// With Options.Local.Cache set, the coordinator is a read-through
// front cache: every experiment (and, when the store is an
// experiments.ParamCache, every parameter point) is consulted there
// before dispatch and stored back after a successful fetch — so a
// repeated run of the same ids executes nothing fleet-wide.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/hist"
	"repro/internal/server"
	"repro/internal/trace"
)

const (
	// DefaultRequestTimeout bounds one remote experiment fetch —
	// generous because a cold experiment legitimately takes up to
	// the worker's own execution timeout (2m default).
	DefaultRequestTimeout = 3 * time.Minute
	// DefaultProbeTimeout bounds the startup /healthz and /stats
	// probes; a worker that cannot answer a liveness check in this
	// window is not worth routing experiments to.
	DefaultProbeTimeout = 5 * time.Second
	// DefaultMaxInFlight caps concurrent requests per worker so a
	// slow worker holds at most this many experiments while its
	// peers absorb the rest of the batch.
	DefaultMaxInFlight = 4
	// DefaultReviveAfter is how long an evicted worker stays out of
	// rotation before a live request may re-try it — long enough not
	// to hammer a dead host, short enough that a restarted worker
	// rejoins a long-lived coordinator promptly.
	DefaultReviveAfter = 15 * time.Second
	// baselineTTL bounds how long the /stats in-flight count scraped
	// at probe time keeps inflating a worker's load: the snapshot
	// describes startup, not steady state, so it expires rather than
	// skewing selection forever.
	baselineTTL = 30 * time.Second
)

// Options configures New. Workers is the only required field.
type Options struct {
	// Workers lists the fleet as host:port addresses (a scheme-full
	// URL is accepted too). Order is irrelevant: selection is by
	// load, not position.
	Workers []string
	// Client overrides the HTTP client; nil means a default client
	// (per-request timeouts come from RequestTimeout, not the client).
	Client *http.Client
	// RequestTimeout bounds each remote experiment fetch; <= 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrent requests per worker; <= 0 means
	// DefaultMaxInFlight.
	MaxInFlight int
	// Local configures the in-process fallback engine (Registry,
	// Cache, Timeout; Jobs bounds how many fallback experiments run
	// concurrently). IDs is ignored — the coordinator runs one
	// request at a time.
	Local experiments.Options
	// Journal, when non-nil, records every load-bearing decision —
	// worker selection, fetch, retry, eviction, revival, registry
	// rejection, cache outcome, local fallback — as span
	// events under the request's trace ID (trace.IDFrom on the run
	// context; minted here when the coordinator is the edge). The same
	// ID travels to every worker in the Repro-Request-ID header, so
	// one ID names the request in the coordinator's journal and each
	// worker's. nil disables coordinator-side recording; the header
	// still propagates when the context carries an ID.
	Journal *trace.Journal
	// Now injects the coordinator's clock (eviction revival, baseline
	// expiry); nil means time.Now. Tests use it to advance time
	// without sleeping.
	Now func() time.Time
	// Logf receives one line per notable event (unreachable worker,
	// failover, fallback); nil means silent.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of a coordinator's traffic counters.
type Stats struct {
	// WorkersTotal and WorkersHealthy describe the fleet now — a
	// worker that died mid-batch has already left WorkersHealthy.
	WorkersTotal, WorkersHealthy int
	// Remote counts experiments served by the fleet, Local those that
	// fell back to the in-process engine.
	Remote, Local int64
	// Failovers counts failed attempts that moved an experiment to
	// another worker (or, when none remained, to the local fallback).
	Failovers int64
	// PrefixRangesRemote and PrefixRangesLocal always read 0: the
	// coordinator no longer splits an experiment into prefix ranges.
	// They are kept only because the benchmark harness (perfbench)
	// reads them.
	PrefixRangesRemote, PrefixRangesLocal int64
	// Workers holds one per-worker record, in configuration order —
	// the coordinator-side fetch-latency distributions that separate a
	// slow worker from a slow fleet.
	Workers []WorkerStats
}

// WorkerStats is one worker's coordinator-side record: every attempt
// through the shared fetch path (fixed experiments and parameter
// points alike, failures included) lands in the latency histogram, so a
// worker that fails fast looks exactly as suspicious as it is.
type WorkerStats struct {
	Addr    string
	Healthy bool
	// Fetches counts attempts sent to this worker; Errors the ones
	// that failed (transport, HTTP status, or decode).
	Fetches, Errors int64
	// Latency is the fetch-latency distribution as the coordinator
	// observed it — request start to body decoded.
	Latency hist.Snapshot
}

// worker is one fleet member and its load accounting.
type worker struct {
	base     string        // http://host:port, no trailing slash
	sem      chan struct{} // bounds in-flight requests to this worker
	inflight atomic.Int64  // the coordinator's own in-flight count
	healthy  atomic.Bool
	retryAt  atomic.Int64 // unix nanos after which eviction may be re-tried
	lat      hist.Histogram
	fetches  atomic.Int64
	errors   atomic.Int64

	// baseline is the worker's /stats in-flight count at probe time
	// (load from clients this coordinator cannot see), counted toward
	// selection until baselineUntil. Written only during New's probe,
	// before any pick can run.
	baseline      int64
	baselineUntil time.Time
}

// selectable reports whether the worker may receive a request:
// healthy, or evicted long enough ago that a revival attempt is due.
func (w *worker) selectable(now time.Time) bool {
	if w.healthy.Load() {
		return true
	}
	r := w.retryAt.Load()
	return r != 0 && now.UnixNano() >= r
}

// load is the selection key: the coordinator's own in-flight count
// plus the scraped startup baseline while it is still fresh.
func (w *worker) load(now time.Time) int64 {
	l := w.inflight.Load()
	if now.Before(w.baselineUntil) {
		l += w.baseline
	}
	return l
}

// Coordinator fans experiment runs out across a figuresd fleet. It is
// safe for concurrent use; one coordinator can serve many Run/RunOne
// calls at once (cmd/figuresd -peers does exactly that).
type Coordinator struct {
	workers    []*worker
	client     *http.Client
	reqTimeout time.Duration
	local      experiments.Options
	localSem   chan struct{}
	journal    *trace.Journal
	now        func() time.Time
	logf       func(format string, args ...any)

	pickMu    sync.Mutex
	remote    atomic.Int64
	localRuns atomic.Int64
	failovers atomic.Int64
}

// defaultClient builds the coordinator's HTTP client when Options
// leaves it nil: the default transport's dialer and keep-alive
// settings, with the per-host idle pool widened to the per-worker
// in-flight cap. The stock DefaultTransport keeps only 2 idle
// connections per host, so a coordinator pushing maxInFlight
// concurrent fetches at one worker would close and re-dial the
// rest of the burst on every wave; sizing the pool to the cap lets
// the whole burst reuse warm connections.
func defaultClient(maxInFlight int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = maxInFlight
	if tr.MaxIdleConns < maxInFlight {
		tr.MaxIdleConns = maxInFlight
	}
	tr.IdleConnTimeout = 90 * time.Second
	return &http.Client{Transport: tr}
}

// New builds a coordinator over the given fleet and probes every
// worker's health concurrently before returning. An unreachable
// worker is not an error — it starts unhealthy and the coordinator
// degrades toward local execution — but an empty worker list is.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("shard: no workers configured")
	}
	reqTimeout := opts.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = DefaultRequestTimeout
	}
	maxInFlight := opts.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	client := opts.Client
	if client == nil {
		client = defaultClient(maxInFlight)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	jobs := opts.Local.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	c := &Coordinator{
		client:     client,
		reqTimeout: reqTimeout,
		local:      opts.Local,
		localSem:   make(chan struct{}, jobs),
		journal:    opts.Journal,
		now:        now,
		logf:       logf,
	}
	for _, addr := range opts.Workers {
		c.workers = append(c.workers, &worker{
			base: baseURL(addr),
			sem:  make(chan struct{}, maxInFlight),
		})
	}
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.probe(w)
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	c.logf("shard: %d/%d workers healthy", st.WorkersHealthy, st.WorkersTotal)
	return c, nil
}

// baseURL normalizes a worker address to a scheme-full base URL.
func baseURL(addr string) string {
	addr = strings.TrimRight(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// SplitList parses a comma-separated flag value — the format the
// -workers, -peers, and -run flags share — dropping empty entries and
// surrounding whitespace.
func SplitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// probe marks w healthy if its /healthz answers 200 within
// DefaultProbeTimeout, then seeds the load accounting from its /stats
// in-flight count (best-effort: a worker without /stats just starts at
// zero).
// A failed probe schedules revival like any other eviction, so a
// worker that was merely slow to boot rejoins a long-lived
// coordinator.
func (c *Coordinator) probe(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		c.logf("shard: worker %s: bad address: %v", w.base, err)
		c.evict(w)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.logf("shard: worker %s unreachable: %v", w.base, err)
		c.evict(w)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.logf("shard: worker %s /healthz: status %d", w.base, resp.StatusCode)
		c.evict(w)
		return
	}
	w.healthy.Store(true)
	if st, err := c.scrapeStats(ctx, w); err == nil {
		// A worker serving a different experiment generation would
		// answer every fetch with bytes from the wrong registry;
		// start it evicted (the per-response header check guards the
		// revival path).
		if st.RegistryVersion != "" && st.RegistryVersion != experiments.RegistryVersion {
			c.logf("shard: worker %s serves registry %s, want %s", w.base, st.RegistryVersion, experiments.RegistryVersion)
			c.evict(w)
			return
		}
		w.baseline = st.InFlight
		w.baselineUntil = c.now().Add(baselineTTL)
	}
}

// evict takes w out of rotation and schedules the moment a live
// request may try it again.
func (c *Coordinator) evict(w *worker) {
	w.healthy.Store(false)
	w.retryAt.Store(c.now().Add(DefaultReviveAfter).UnixNano())
}

// revive returns w to full rotation after a successful request,
// reporting whether w was actually evicted (so callers journal real
// revivals, not every success).
func (c *Coordinator) revive(w *worker) bool {
	if !w.healthy.Swap(true) {
		c.logf("shard: worker %s revived", w.base)
		return true
	}
	return false
}

// scrapeStats fetches one worker's /stats snapshot.
func (c *Coordinator) scrapeStats(ctx context.Context, w *worker) (server.StatsResponse, error) {
	var st server.StatsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("shard: worker %s /stats: status %d", w.base, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("shard: worker %s /stats: %w", w.base, err)
	}
	return st, nil
}

// Run executes the selected experiments across the fleet and returns
// one Result per requested id, in request order — the same contract as
// experiments.Run, which it degrades to when the fleet cannot serve.
// Because results are merged in request order and the JSON wire form
// is a pure function of experiment outputs, the encoded output of a
// sharded run is byte-identical to a local run of the same ids. Empty
// ids means every experiment in the local registry, in index order.
// Run errors only on configuration mistakes (an unknown id).
func (c *Coordinator) Run(ctx context.Context, ids []string) ([]experiments.Result, error) {
	reg := c.local.Registry
	if reg == nil {
		reg = experiments.Registry()
	}
	if len(ids) == 0 {
		ids = experiments.IDsOf(reg)
	}
	for _, id := range ids {
		if _, ok := reg[id]; !ok {
			return nil, fmt.Errorf("shard: unknown experiment %q", id)
		}
	}
	results := make([]experiments.Result, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			results[i], errs[i] = c.RunOne(ctx, id, experiments.ParamSet{})
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunOne executes one request — experiment id at point ps, the zero
// ParamSet being the fixed experiment — through the fleet with the
// same failover and fallback rules as Run: from the coordinator's own
// cache when it holds the result, otherwise fetched whole from each
// worker at most once, least-loaded first, and finally run locally. A
// non-default point is its own cache entry and its own fetch; the
// default point aliases the fixed experiment. It is the execution
// backend cmd/figuresd -peers plugs into internal/server.
func (c *Coordinator) RunOne(ctx context.Context, id string, ps experiments.ParamSet) (experiments.Result, error) {
	if err := experiments.CheckPoint(id, ps); err != nil {
		return experiments.Result{}, err
	}
	params := ps.Canonical()
	what := id
	if params != "" {
		what = ps.String()
	}
	// The trace ID arrives on the context when an upstream edge (the
	// serving layer) minted it; when the coordinator is itself the edge
	// (a CLI run), it mints one so the fleet's journals still agree on
	// a name for this request.
	reqID := trace.IDFrom(ctx)
	if reqID == "" && c.journal != nil {
		reqID = trace.NewID()
		ctx = trace.WithID(ctx, reqID)
	}
	c.journal.Start(reqID, "run "+what)
	// A warm front cache absorbs every fetch, so one family's cold
	// start never drags warm families back to the fleet.
	if c.local.Cache != nil {
		if res, ok := experiments.CacheGet(c.local.Cache, id, params); ok && res.Err == nil && res.Table != nil {
			res.ID = id
			res.Cached = true
			c.journal.Add(reqID, trace.Event{Kind: trace.KindCacheHit, Detail: "coordinator front cache"})
			return res, nil
		}
		c.journal.Add(reqID, trace.Event{Kind: trace.KindCacheMiss, Detail: "coordinator front cache"})
	}
	tried := make(map[*worker]bool)
	for {
		w := c.pick(tried)
		if w == nil {
			break // fleet exhausted (or entirely unhealthy)
		}
		tried[w] = true
		c.journal.Add(reqID, trace.Event{Kind: trace.KindWorkerSelected, Worker: w.base,
			Detail: fmt.Sprintf("in-flight %d", w.inflight.Load())})
		fetchStart := time.Now()
		res, err := c.fetch(ctx, w, id, ps)
		w.inflight.Add(-1)
		if err == nil {
			c.remote.Add(1)
			c.journal.Add(reqID, trace.Event{Kind: trace.KindFetch, Worker: w.base,
				Detail: fmt.Sprintf("fetched whole in %v", time.Since(fetchStart).Round(time.Microsecond))})
			experiments.CachePut(c.local.Cache, id, params, res) // best-effort, like the engine
			return res, nil
		}
		if ctx.Err() != nil {
			return experiments.Result{ID: id, Err: ctx.Err()}, nil
		}
		c.failovers.Add(1)
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRetry, Worker: w.base, Detail: err.Error()})
		c.logf("shard: %s on %s failed (%v); failing over", what, w.base, err)
	}
	c.journal.Add(reqID, trace.Event{Kind: trace.KindLocalFallback})
	return c.runLocal(ctx, id, ps, what)
}

// pick returns the selectable, untried worker with the lowest load,
// charging it one in-flight slot (the caller releases it), or nil
// when no worker qualifies.
func (c *Coordinator) pick(tried map[*worker]bool) *worker {
	c.pickMu.Lock()
	defer c.pickMu.Unlock()
	now := c.now()
	var best *worker
	for _, w := range c.workers {
		if tried[w] || !w.selectable(now) {
			continue
		}
		if best == nil || w.load(now) < best.load(now) {
			best = w
		}
	}
	if best != nil {
		best.inflight.Add(1)
	}
	return best
}

// fetchWorker performs one GET against a worker, holding a slot of
// the worker's in-flight cap for the duration (body read included)
// under the per-request timeout, and applies the shared failure
// policy: a transport failure evicts the worker — unless it is this
// request's own deadline, because a slow experiment is not a dead
// worker — a non-200 drains a bounded body prefix and fails the
// attempt, and a fully decoded success (decode returned nil) restores
// an evicted worker to rotation. Both the fixed-experiment and the
// parameter-point paths go through here so the failover policy cannot
// diverge between them.
func (c *Coordinator) fetchWorker(ctx context.Context, w *worker, pathAndQuery string, decode func(io.Reader) error) error {
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-w.sem }()
	// The latency record spans request start to body decoded — queue
	// time on the worker's semaphore excluded, because that measures
	// this coordinator's cap, not the worker. Failures are recorded
	// too: a worker failing fast must not look fast and healthy.
	start := time.Now()
	w.fetches.Add(1)
	err := c.fetchWorkerLocked(ctx, w, pathAndQuery, decode)
	w.lat.Record(time.Since(start))
	if err != nil {
		w.errors.Add(1)
	}
	return err
}

// fetchWorkerLocked is fetchWorker's body, split out so the latency
// and error accounting wraps every return path exactly once.
func (c *Coordinator) fetchWorkerLocked(ctx context.Context, w *worker, pathAndQuery string, decode func(io.Reader) error) error {
	ctx, cancel := context.WithTimeout(ctx, c.reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+pathAndQuery, nil)
	if err != nil {
		return err
	}
	// The trace ID crosses the process boundary here: the worker
	// journals its cache and singleflight decisions under the same ID
	// the coordinator journals selection under.
	reqID := trace.IDFrom(ctx)
	if reqID != "" {
		req.Header.Set(trace.Header, reqID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			c.evict(w)
			c.journal.Add(reqID, trace.Event{Kind: trace.KindEvict, Worker: w.base, Detail: err.Error()})
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	// A worker on a different experiment generation answers 200 with
	// perfectly decodable bytes from the wrong registry; merging them
	// would break byte-identity silently, so the attempt fails
	// instead. Workers too old to send the header are caught by the
	// probe's /stats version check.
	if v := resp.Header.Get(server.RegistryVersionHeader); v != "" && v != experiments.RegistryVersion {
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRegistryReject, Worker: w.base,
			Detail: fmt.Sprintf("worker registry %s, want %s", v, experiments.RegistryVersion)})
		return fmt.Errorf("worker registry %s, want %s", v, experiments.RegistryVersion)
	}
	if err := decode(resp.Body); err != nil {
		return err
	}
	if c.revive(w) {
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRevive, Worker: w.base})
	}
	return nil
}

// fetch retrieves one experiment whole from one worker — a parameter
// point with an explicit query spelling out every parameter, so any
// worker resolves it to the same canonical point.
func (c *Coordinator) fetch(ctx context.Context, w *worker, id string, ps experiments.ParamSet) (experiments.Result, error) {
	var res experiments.Result
	path := "/experiments/" + url.PathEscape(id) + "?"
	if q := ps.Query(); q != "" {
		path += q + "&"
	}
	err := c.fetchWorker(ctx, w, path+"format=json", func(body io.Reader) error {
		results, err := experiments.DecodeJSON(body)
		if err != nil {
			return err
		}
		if len(results) != 1 || results[0].ID != id || results[0].Err != nil || results[0].Table == nil {
			return fmt.Errorf("unusable result payload")
		}
		res = results[0]
		return nil
	})
	return res, err
}

// runLocal executes one request in process through
// experiments.RunPoint with the coordinator's Local options, bounded by
// the local-fallback concurrency (Options.Local.Jobs).
func (c *Coordinator) runLocal(ctx context.Context, id string, ps experiments.ParamSet, what string) (experiments.Result, error) {
	select {
	case c.localSem <- struct{}{}:
	case <-ctx.Done():
		return experiments.Result{ID: id, Err: ctx.Err()}, nil
	}
	defer func() { <-c.localSem }()
	res, err := experiments.RunPoint(ctx, id, ps, c.local)
	if err != nil {
		return experiments.Result{}, err
	}
	c.localRuns.Add(1)
	c.logf("shard: %s ran locally", what)
	return res, nil
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		WorkersTotal: len(c.workers),
		Remote:       c.remote.Load(),
		Local:        c.localRuns.Load(),
		Failovers:    c.failovers.Load(),
	}
	for _, w := range c.workers {
		if w.healthy.Load() {
			st.WorkersHealthy++
		}
		st.Workers = append(st.Workers, WorkerStats{
			Addr:    w.base,
			Healthy: w.healthy.Load(),
			Fetches: w.fetches.Load(),
			Errors:  w.errors.Load(),
			Latency: w.lat.Snapshot(),
		})
	}
	return st
}
