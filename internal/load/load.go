// Package load is the load harness: it drives a figuresd fleet with a
// configurable traffic mix at a target rate and reports the latency
// distributions — the instrument every performance claim about the
// serving stack is judged with. `figures load` is its CLI front end;
// CI's load-smoke gate and the committed BENCH_load.json trajectory
// come from here.
//
// The generator is open-loop: request arrival times are fixed on a
// schedule (one every 1/QPS seconds) before any response comes back,
// so a slow server faces the arrival rate a real population would
// produce instead of a rate politely throttled by its own latency.
// Concurrency is still bounded — at most Concurrency requests are in
// flight, and when the bound is hit the dispatcher blocks, late
// arrivals fire immediately (catch-up), and the achieved-QPS figure
// honestly records the shortfall. The run loop is context-cancellable:
// cancelling stops dispatch, drains in-flight requests, and the
// partial summary is still returned.
//
// The mix is deterministic, not sampled: weights expand into a fixed
// rotation (whole:3,param:1 → W W W P repeating), experiment ids and
// targets round-robin independently, so two runs of the same config
// issue the same request sequence — load results diff cleanly across
// PRs for the same reason experiment tables do.
//
// Latency is recorded client-side into the same log-bucket histograms
// (internal/hist) the servers keep per endpoint, and each target's
// /stats is scraped before and after the run — so coordinator/network
// overhead (client-side minus server-side quantiles) and cache
// behaviour (hit-rate delta) are separable in one summary.
package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/hist"
	"repro/internal/server"
	"repro/internal/trace"
)

// Request kinds: the serving paths a figuresd fleet exposes. KindWhole
// hits the fixed-experiment endpoint (the server's "experiment"
// label), KindParam a parameterized point of a family (its "param"
// label).
const (
	// KindWhole fetches a whole experiment table.
	KindWhole = "whole"
	// KindParam fetches one parameter point of an experiment family
	// (GET /experiments/{family}?k=...).
	KindParam = "param"
)

// DefaultRequestTimeout bounds one load-harness request. Shorter than
// the server's execution timeout on purpose: a load test measures
// serving latency, and a request this far into the tail is better
// recorded as an error than waited out.
const DefaultRequestTimeout = 60 * time.Second

// MixEntry is one weighted request kind of the traffic mix.
type MixEntry struct {
	Kind   string `json:"kind"`
	Weight int    `json:"weight"`
}

// ParseMix parses the -mix flag form "whole:3,param:1" (a bare kind
// means weight 1) into mix entries. A kind listed more than once has
// its weights summed into one entry at its first position —
// "whole:2,param:1,whole:1" is the rotation of "whole:3,param:1", not
// two interleaved whole entries (which would silently skew the
// rotation's period).
func ParseMix(s string) ([]MixEntry, error) {
	var mix []MixEntry
	index := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, weightStr, hasWeight := strings.Cut(part, ":")
		weight := 1
		if hasWeight {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("load: mix weight %q: want a positive integer", part)
			}
			weight = w
		}
		if kind != KindWhole && kind != KindParam {
			return nil, fmt.Errorf("load: unknown mix kind %q (want %s or %s)", kind, KindWhole, KindParam)
		}
		if i, ok := index[kind]; ok {
			mix[i].Weight += weight
			continue
		}
		index[kind] = len(mix)
		mix = append(mix, MixEntry{Kind: kind, Weight: weight})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("load: empty mix")
	}
	return mix, nil
}

// Options configures Run. Targets, QPS, Duration, Mix, and
// Experiments are required.
type Options struct {
	// Targets lists the fleet members to drive, as host:port addresses
	// or scheme-full URLs; requests round-robin across them.
	Targets []string
	// QPS is the target arrival rate across all targets.
	QPS float64
	// Duration is how long arrivals are generated; in-flight requests
	// are drained afterwards and still counted.
	Duration time.Duration
	// Warmup, when positive, runs the same mix unmeasured first — the
	// knob that separates cold-cache from warm-cache measurements
	// (there is no remote cache flush, so "cold" means a fresh store
	// and "warm" means warmed by this phase).
	Warmup time.Duration
	// Concurrency bounds in-flight requests; <= 0 means 4×GOMAXPROCS.
	Concurrency int
	// RequestTimeout bounds one request; <= 0 means
	// DefaultRequestTimeout. Ignored when Client is set.
	RequestTimeout time.Duration
	// Mix is the weighted request-kind rotation (see ParseMix).
	Mix []MixEntry
	// Experiments lists the experiment ids to spread whole-experiment
	// fetches over, optionally weighted ("E1:3").
	Experiments []string
	// ParamPoints lists the parameter points KindParam requests cycle
	// through, as "family:k=3,i0=0" entries (the family id, a colon,
	// then the -param list form). Empty means one point per listed
	// parameterized family: its defaults spelled out explicitly — the
	// request exercises the validation and canonicalization path while
	// sharing the fixed experiment's cache entry.
	ParamPoints []string
	// Families maps ids to parameter schemas for param planning; nil
	// means the default experiments.Families().
	Families map[string]experiments.Family
	// Format is the whole-experiment fetch format; empty means json,
	// the format the shard coordinator itself fetches.
	Format string
	// Client overrides the HTTP client; nil means one with
	// RequestTimeout. Tests inject httptest clients here.
	Client *http.Client
	// Logf receives progress lines; nil means silent.
	Logf func(format string, args ...any)
}

// KindSummary is one request kind's share of a Summary.
type KindSummary struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Latency is the client-observed distribution: network and
	// coordinator overhead included, which is exactly what a user of
	// the fleet experiences.
	Latency hist.Snapshot `json:"latency"`
}

// TargetSummary is one fleet member's view of the run, scraped from
// its /stats before and after.
type TargetSummary struct {
	// Requests counts what this harness sent to the target (the
	// target's own counters include traffic from anyone).
	Requests int64 `json:"requests"`
	// CacheBefore/CacheAfter are the target's cache counters around
	// the measured phase (warmup included in Before's baseline);
	// absent when the target runs cacheless or the scrape failed.
	CacheBefore *server.StatsCache `json:"cache_before,omitempty"`
	CacheAfter  *server.StatsCache `json:"cache_after,omitempty"`
	// CacheHitRate is the hit rate over the run itself: the delta in
	// hits over the delta in lookups. -1 when the
	// target saw no cache lookups or reports no cache.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Endpoints is the target's server-side latency distribution
	// after the run — subtracting these quantiles from the
	// client-side ones isolates coordinator/network overhead.
	Endpoints map[string]hist.Snapshot `json:"endpoints,omitempty"`
	// ScrapeError records a failed /stats scrape instead of failing
	// the whole run over an observability endpoint.
	ScrapeError string `json:"scrape_error,omitempty"`
}

// ErrorSample ties one failed request to the trace ID the harness
// minted for it, so a red run's failures can be looked up in the
// fleet's journals (/trace/{id}) instead of guessed at.
type ErrorSample struct {
	RequestID string `json:"request_id"`
	Error     string `json:"error"`
}

// TraceSample names one successful measured request: the trace ID the
// harness sent in the Repro-Request-ID header and where it went. The
// journal is a bounded ring, so the samples kept are the most recent
// ones — the IDs most likely to still be resident when a consumer
// (CI's load-smoke gate) fetches /trace/{id} after the run.
type TraceSample struct {
	RequestID string `json:"request_id"`
	Kind      string `json:"kind"`
	Target    string `json:"target"`
	Path      string `json:"path"`
}

// Summary is the machine-readable result of one load run — the
// BENCH_load.json schema.
type Summary struct {
	StartedAt   time.Time `json:"started_at"`
	TargetQPS   float64   `json:"target_qps"`
	AchievedQPS float64   `json:"achieved_qps"`
	// DurationSeconds is the configured arrival window;
	// ElapsedSeconds adds the drain tail (in-flight requests finishing
	// past the window). AchievedQPS is requests/elapsed.
	DurationSeconds float64 `json:"duration_s"`
	ElapsedSeconds  float64 `json:"elapsed_s"`
	WarmupSeconds   float64 `json:"warmup_s"`
	Requests        int64   `json:"requests"`
	Errors          int64   `json:"errors"`
	// Cancelled reports an early stop via context cancellation; the
	// counts above cover what actually ran.
	Cancelled bool `json:"cancelled,omitempty"`
	// ErrorSamples holds the first few failures with their trace IDs —
	// enough to diagnose a red run without scrolling thousands of
	// lines, and enough to pull each failure's span from the fleet.
	ErrorSamples []ErrorSample `json:"error_samples,omitempty"`
	// TraceSamples holds the most recent few successful requests'
	// trace IDs, one handle per kind/target mix into the fleet's
	// journals.
	TraceSamples []TraceSample            `json:"trace_samples,omitempty"`
	Kinds        map[string]KindSummary   `json:"kinds"`
	Targets      map[string]TargetSummary `json:"targets"`
}

// plan is the deterministic request schedule: expanded kind rotation
// and per-kind round-robin paths.
type plan struct {
	kinds  []string // weight-expanded rotation
	whole  []string // request paths for whole fetches
	param  []string // request paths for parameterized fetches
	wholeN atomic.Int64
	paramN atomic.Int64
}

// next returns the kind, path, and per-kind sequence number of
// arrival i. The sequence number — not the arrival index — drives
// target round-robin: the mix rotation's period can share a factor
// with the fleet size (whole:3,param:1 against two targets puts every
// param request on an odd arrival index), and indexing targets by arrival
// would then starve some workers of a whole kind.
func (p *plan) next(i int64) (kind, path string, seq int64) {
	kind = p.kinds[i%int64(len(p.kinds))]
	if kind == KindParam {
		seq = p.paramN.Add(1)
		return kind, p.param[seq%int64(len(p.param))], seq
	}
	seq = p.wholeN.Add(1)
	return kind, p.whole[seq%int64(len(p.whole))], seq
}

// buildPlan validates the mix against the experiment list and
// precomputes every request path, so every run of the same config
// issues the same requests.
func buildPlan(opts *Options) (*plan, error) {
	p := &plan{}
	for _, m := range opts.Mix {
		for i := 0; i < m.Weight; i++ {
			p.kinds = append(p.kinds, m.Kind)
		}
	}
	format := opts.Format
	if format == "" {
		format = "json"
	}
	if _, err := experiments.LookupEncoder(format); err != nil {
		return nil, err
	}
	families := opts.Families
	if families == nil {
		families = experiments.Families()
	}
	needParam := false
	for _, m := range opts.Mix {
		needParam = needParam || m.Kind == KindParam
	}
	// Explicit param points are planned once, independent of the
	// experiment list; without them each listed parameterized family
	// contributes its default point (planned inside the loop below).
	if needParam && len(opts.ParamPoints) > 0 {
		for _, entry := range opts.ParamPoints {
			famID, list, ok := strings.Cut(entry, ":")
			if !ok || famID == "" {
				return nil, fmt.Errorf("load: param point %q: want family:name=value,...", entry)
			}
			fam, ok := families[famID]
			if !ok {
				return nil, fmt.Errorf("load: param point %q: %q is not a parameterized family", entry, famID)
			}
			ps, err := experiments.ParseParamList(fam, list)
			if err != nil {
				return nil, fmt.Errorf("load: param point %q: %w", entry, err)
			}
			p.param = append(p.param, "/experiments/"+famID+"?"+ps.Query()+"&format="+format)
		}
	}
	for _, entry := range opts.Experiments {
		id, weightStr, hasWeight := strings.Cut(entry, ":")
		weight := 1
		if hasWeight {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("load: experiment weight %q: want a positive integer", entry)
			}
			weight = w
		}
		for i := 0; i < weight; i++ {
			p.whole = append(p.whole, "/experiments/"+id+"?format="+format)
		}
		if needParam && len(opts.ParamPoints) == 0 {
			if fam, ok := families[id]; ok {
				ps, err := experiments.DefaultParams(fam)
				if err != nil {
					return nil, fmt.Errorf("load: defaults for %s: %w", id, err)
				}
				for i := 0; i < weight; i++ {
					p.param = append(p.param, "/experiments/"+id+"?"+ps.Query()+"&format="+format)
				}
			}
		}
	}
	if len(p.whole) == 0 {
		return nil, fmt.Errorf("load: no experiments to fetch")
	}
	if needParam && len(p.param) == 0 {
		return nil, fmt.Errorf("load: mix includes %q but no listed experiment is parameterized", KindParam)
	}
	return p, nil
}

// baseURL normalizes a target address to a scheme-full base URL.
func baseURL(addr string) string {
	addr = strings.TrimRight(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// normalizeTargets canonicalizes the target list at configuration
// time: every address trimmed and normalized to a scheme-full base
// URL, empties rejected, and duplicates rejected after normalization —
// "host:1" and "http://host:1/" are the same member, and letting both
// through would silently skew the round-robin (one server counted as
// two fleet slots) and double-scrape its /stats.
func normalizeTargets(targets []string) ([]string, error) {
	out := make([]string, 0, len(targets))
	seen := make(map[string]int, len(targets))
	for i, t := range targets {
		trimmed := strings.TrimSpace(t)
		if trimmed == "" {
			return nil, fmt.Errorf("load: target %d is empty", i+1)
		}
		base := baseURL(trimmed)
		u, err := url.Parse(base)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("load: target %q is not a valid address", t)
		}
		if j, ok := seen[base]; ok {
			return nil, fmt.Errorf("load: duplicate target %q (same as target %d after normalization)", t, j+1)
		}
		seen[base] = i
		out = append(out, base)
	}
	return out, nil
}

// harness is one run's mutable state.
type harness struct {
	opts    *Options
	plan    *plan
	client  *http.Client
	targets []string
	logf    func(format string, args ...any)

	kindLat  map[string]*hist.Histogram
	kindReqs map[string]*atomic.Int64
	kindErrs map[string]*atomic.Int64
	perTgt   []atomic.Int64

	errMu      sync.Mutex
	errSamples []ErrorSample

	traceMu      sync.Mutex
	traceSamples []TraceSample
	traceSeq     int
}

// sampleCap bounds both sample lists: error samples keep the first
// few failures (the start of an outage explains it best), trace
// samples keep the most recent few successes (the IDs still resident
// in the fleet's bounded journals).
const sampleCap = 5

// Run drives the configured load and returns the summary. Errors are
// configuration mistakes only; request failures are counted in the
// summary instead. Cancelling ctx stops dispatch early, drains, and
// returns the partial summary with Cancelled set.
func Run(ctx context.Context, opts Options) (*Summary, error) {
	if len(opts.Targets) == 0 {
		return nil, fmt.Errorf("load: no targets")
	}
	targets, err := normalizeTargets(opts.Targets)
	if err != nil {
		return nil, err
	}
	if opts.QPS <= 0 {
		return nil, fmt.Errorf("load: qps must be positive")
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("load: duration must be positive")
	}
	if len(opts.Experiments) == 0 {
		return nil, fmt.Errorf("load: no experiments")
	}
	if len(opts.Mix) == 0 {
		return nil, fmt.Errorf("load: empty mix")
	}
	p, err := buildPlan(&opts)
	if err != nil {
		return nil, err
	}
	client := opts.Client
	if client == nil {
		timeout := opts.RequestTimeout
		if timeout <= 0 {
			timeout = DefaultRequestTimeout
		}
		client = &http.Client{Timeout: timeout}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	h := &harness{
		opts:     &opts,
		plan:     p,
		client:   client,
		targets:  targets,
		logf:     logf,
		kindLat:  map[string]*hist.Histogram{KindWhole: hist.New(), KindParam: hist.New()},
		kindReqs: map[string]*atomic.Int64{KindWhole: {}, KindParam: {}},
		kindErrs: map[string]*atomic.Int64{KindWhole: {}, KindParam: {}},
		perTgt:   make([]atomic.Int64, len(targets)),
	}

	if opts.Warmup > 0 {
		logf("load: warming up for %v", opts.Warmup)
		h.generate(ctx, opts.Warmup, false)
	}

	before := h.scrapeAll()
	started := time.Now()
	cancelled := h.generate(ctx, opts.Duration, true)
	elapsed := time.Since(started)
	after := h.scrapeAll()

	sum := &Summary{
		StartedAt:       started,
		TargetQPS:       opts.QPS,
		DurationSeconds: opts.Duration.Seconds(),
		ElapsedSeconds:  elapsed.Seconds(),
		WarmupSeconds:   opts.Warmup.Seconds(),
		Cancelled:       cancelled,
		ErrorSamples:    h.errSamples,
		TraceSamples:    h.traceSamples,
		Kinds:           map[string]KindSummary{},
		Targets:         map[string]TargetSummary{},
	}
	for kind, lat := range h.kindLat {
		reqs := h.kindReqs[kind].Load()
		if reqs == 0 {
			continue
		}
		sum.Kinds[kind] = KindSummary{
			Requests: reqs,
			Errors:   h.kindErrs[kind].Load(),
			Latency:  lat.Snapshot(),
		}
		sum.Requests += reqs
		sum.Errors += h.kindErrs[kind].Load()
	}
	if elapsed > 0 {
		sum.AchievedQPS = float64(sum.Requests) / elapsed.Seconds()
	}
	for i, base := range h.targets {
		ts := TargetSummary{Requests: h.perTgt[i].Load(), CacheHitRate: -1}
		b, a := before[i], after[i]
		if a.err != nil {
			ts.ScrapeError = a.err.Error()
		} else {
			ts.Endpoints = a.stats.Endpoints
			ts.CacheAfter = a.stats.Cache
		}
		if b.err == nil {
			ts.CacheBefore = b.stats.Cache
		}
		if ts.CacheBefore != nil && ts.CacheAfter != nil {
			hits := ts.CacheAfter.Hits - ts.CacheBefore.Hits
			lookups := hits + ts.CacheAfter.Misses - ts.CacheBefore.Misses
			if lookups > 0 {
				ts.CacheHitRate = float64(hits) / float64(lookups)
			}
		}
		sum.Targets[base] = ts
	}
	return sum, nil
}

// generate runs one phase of open-loop arrivals for the given window,
// recording measurements only when measured is true. It returns
// whether the phase was cut short by ctx.
func (h *harness) generate(ctx context.Context, window time.Duration, measured bool) (cancelled bool) {
	concurrency := h.opts.Concurrency
	if concurrency <= 0 {
		concurrency = 4 * runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, concurrency)
	interval := time.Duration(float64(time.Second) / h.opts.QPS)
	start := time.Now()
	deadline := time.NewTimer(window)
	defer deadline.Stop()
	var wg sync.WaitGroup

dispatch:
	for i := int64(0); ; i++ {
		next := start.Add(time.Duration(i) * interval)
		if !next.Before(start.Add(window)) {
			break
		}
		if wait := time.Until(next); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				cancelled = true
				break dispatch
			}
		}
		// Late arrivals (the loop running behind the schedule, or a
		// full semaphore) fire as soon as they can — open-loop catch-up
		// — but never past the window.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			cancelled = true
			break dispatch
		case <-deadline.C:
			break dispatch
		}
		kind, path, seq := h.plan.next(i)
		tgtIdx := int(seq % int64(len(h.targets)))
		target := h.targets[tgtIdx]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			h.do(kind, target, tgtIdx, path, measured)
		}()
	}
	wg.Wait()
	return cancelled
}

// do performs one request and records its outcome. The measured
// latency spans request start to body fully read — the user-visible
// cost of the response, not just its first byte. Every request
// carries a freshly minted trace ID, so any request in the run —
// failed or not — can be looked up in the target's journal while it
// stays resident.
func (h *harness) do(kind, target string, tgtIdx int, path string, measured bool) {
	reqID := trace.NewID()
	start := time.Now()
	err := h.get(reqID, target+path)
	d := time.Since(start)
	if !measured {
		return
	}
	h.kindReqs[kind].Add(1)
	h.perTgt[tgtIdx].Add(1)
	h.kindLat[kind].Record(d)
	if err != nil {
		h.kindErrs[kind].Add(1)
		h.errMu.Lock()
		if len(h.errSamples) < sampleCap {
			h.errSamples = append(h.errSamples, ErrorSample{RequestID: reqID, Error: err.Error()})
		}
		h.errMu.Unlock()
		h.logf("load: %s: %v (trace %s)", path, err, reqID)
		return
	}
	h.traceMu.Lock()
	s := TraceSample{RequestID: reqID, Kind: kind, Target: target, Path: path}
	if len(h.traceSamples) < sampleCap {
		h.traceSamples = append(h.traceSamples, s)
	} else {
		h.traceSamples[h.traceSeq%sampleCap] = s
	}
	h.traceSeq++
	h.traceMu.Unlock()
}

// get fetches one URL under the given trace ID, draining the body;
// any transport error or non-200 status is a request failure.
func (h *harness) get(reqID, url string) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set(trace.Header, reqID)
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("GET %s: reading body: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// scrape is one target's /stats snapshot or the error that prevented
// it.
type scrape struct {
	stats server.StatsResponse
	err   error
}

// scrapeAll fetches every target's /stats concurrently, best-effort.
func (h *harness) scrapeAll() []scrape {
	out := make([]scrape, len(h.targets))
	var wg sync.WaitGroup
	for i, base := range h.targets {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			resp, err := h.client.Get(base + "/stats")
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				out[i].err = fmt.Errorf("GET %s/stats: status %d", base, resp.StatusCode)
				return
			}
			out[i].err = json.NewDecoder(resp.Body).Decode(&out[i].stats)
		}(i, base)
	}
	wg.Wait()
	return out
}
