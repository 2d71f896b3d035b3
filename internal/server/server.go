// Package server is the HTTP serving layer over the experiment engine:
// cmd/figuresd mounts it as a daemon. It serves the experiment index,
// individual experiment tables in every encoder format, a health
// probe, and an operational /stats snapshot (cache hit/miss/eviction
// counters, per-experiment latency with full log-bucket histograms,
// per-endpoint p50/p95/p99 — the distributions internal/load's
// harness measures against — and the in-flight count internal/shard
// ranks workers by), with three protections a CLI run does not need:
//
//   - singleflight deduplication: N concurrent requests for a cold
//     experiment trigger exactly one execution, and all N responses
//     are rendered from the one result;
//   - a per-execution timeout detached from the request context, so a
//     client disconnect cannot poison the result other waiters share;
//   - optional cache backing (internal/cache): warm experiments are
//     served from disk without executing anything.
//
// Execution is pluggable through Options.Backend: cmd/figuresd -peers
// installs a shard.Coordinator there, turning one daemon into the
// front door of a fleet while keeping every serving-layer guarantee.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/hist"
	"repro/internal/sched"
	"repro/internal/trace"
)

// DefaultTimeout bounds one experiment execution when Options.Timeout
// is zero — generous because the slowest experiments and the larger
// parameter points take seconds, and a timeout that fires
// mid-exploration wastes the work.
const DefaultTimeout = 2 * time.Minute

// RegistryVersionHeader carries experiments.RegistryVersion on every
// experiment and slice response, so a shard coordinator can refuse to
// merge bytes from a worker serving a different experiment generation
// (the /stats and /experiments bodies expose it too, but the header
// travels with the very response being merged).
const RegistryVersionHeader = "Repro-Registry-Version"

// Options configures New. The zero value serves the real registry
// with no cache and DefaultTimeout.
type Options struct {
	// Registry overrides the experiment registry; nil means
	// experiments.Registry().
	Registry map[string]experiments.Runner
	// Cache, when non-nil, backs every execution (see
	// experiments.Options.Cache). When it is an artifact store
	// (experiments.SliceCache), prefix-slice requests are served from
	// and stored into it too.
	Cache experiments.Cache
	// Timeout bounds each experiment execution; 0 means
	// DefaultTimeout, negative means no limit.
	Timeout time.Duration
	// Backend, when non-nil, replaces the in-process engine for
	// experiment execution: the singleflight, detached timeout (via
	// the context's deadline), and cooldown still apply, but the
	// result comes from the backend — cmd/figuresd -peers wires a
	// shard coordinator in here so one daemon fronts a fleet. A
	// backend owns its own caching; Options.Cache is not consulted
	// around it. Prefix-slice requests (?prefixes=) never go through
	// the backend: a slice is this worker's own share of a space
	// someone upstream already carved, so re-delegating it would
	// bounce work around the fleet instead of doing it.
	Backend func(ctx context.Context, id string) (experiments.Result, error)
	// ParamBackend, when non-nil, replaces in-process evaluation of
	// parameterized points (GET /experiments/{family}?k=...) the way
	// Backend replaces fixed experiments: cmd/figuresd -peers wires
	// shard.Coordinator.RunParam in here so non-default points fan out
	// across the fleet too. Default-point requests never reach it —
	// they alias the fixed experiment and follow Backend.
	ParamBackend func(ctx context.Context, id string, ps experiments.ParamSet) (experiments.Result, error)
	// Shardables maps prefix-shardable experiment ids to their
	// partial-run seams, enabling GET /experiments/{id}?prefixes=...
	// (one slice of one experiment's exploration space). nil means the
	// default experiments.Shardables() when Registry is nil, and none
	// otherwise — an override's ids are not the real experiments, so
	// it opts in explicitly.
	Shardables map[string]experiments.Shardable
	// Families maps experiment ids to their parameterized spaces,
	// enabling GET /experiments/{family}?param=... nil means
	// experiments.FamiliesFor(Registry) — the real families when the
	// registry is the real one, none under an override unless the
	// override opts in here.
	Families map[string]experiments.Family
	// Journal receives one span per request (keyed by the
	// Repro-Request-ID header, minted here when absent) and backs
	// GET /trace/{id}; nil means a private journal with the default
	// bounds. cmd/figuresd shares one journal between this server and
	// its -peers coordinator so a front-door trace shows both layers.
	Journal *trace.Journal
	// Logf receives one line per request; nil means silent.
	Logf func(format string, args ...any)
}

// Server handles the figuresd HTTP API:
//
//	GET /experiments                         the experiment index (JSON)
//	GET /experiments/{id}?format=text|json|csv   one experiment's table
//	GET /experiments/{id}?prefixes=...       one slice of a shardable
//	                                         experiment's space (JSON
//	                                         shard envelope)
//	GET /healthz                             liveness probe
//	GET /stats                               operational counters (JSON)
type Server struct {
	reg          map[string]experiments.Runner
	ids          []string
	cache        experiments.Cache
	timeout      time.Duration
	backend      func(ctx context.Context, id string) (experiments.Result, error)
	paramBackend func(ctx context.Context, id string, ps experiments.ParamSet) (experiments.Result, error)
	shardables   map[string]experiments.Shardable
	families     map[string]experiments.Family
	exploreSem   chan struct{}
	journal      *trace.Journal
	logf         func(format string, args ...any)
	flights      flightGroup
	mux          *http.ServeMux

	mu        sync.Mutex
	cooldowns map[string]cooldownEntry

	inFlight atomic.Int64
	requests atomic.Int64
	statsMu  sync.Mutex
	perExp   map[string]*expStat
	// memoMu guards the accumulated memoized-exploration counters
	// (memoRuns plus the summed sched.Stats) behind /stats.
	memoMu     sync.Mutex
	memoRuns   int64
	memoTotals sched.Stats
	// endpointLat holds the per-endpoint latency histograms (fixed
	// key set, built at New): recording is lock-free on the request
	// path, /stats snapshots them.
	endpointLat map[string]*hist.Histogram
}

// New builds a server over the given registry and cache.
func New(opts Options) *Server {
	reg := opts.Registry
	if reg == nil {
		reg = experiments.Registry()
	}
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	shardables := opts.Shardables
	if shardables == nil {
		shardables = experiments.ShardablesFor(opts.Registry)
	}
	families := opts.Families
	if families == nil {
		families = experiments.FamiliesFor(opts.Registry)
	}
	journal := opts.Journal
	if journal == nil {
		journal = trace.NewJournal(0, 0)
	}
	s := &Server{
		reg:          reg,
		ids:          ids,
		cache:        opts.Cache,
		timeout:      timeout,
		backend:      opts.Backend,
		paramBackend: opts.ParamBackend,
		shardables:   shardables,
		families:     families,
		exploreSem:   make(chan struct{}, sliceExploreSlots),
		journal:      journal,
		logf:         logf,
		mux:          http.NewServeMux(),
		cooldowns:    make(map[string]cooldownEntry),
		perExp:       make(map[string]*expStat),
		endpointLat: map[string]*hist.Histogram{
			EndpointExperiment: hist.New(),
			EndpointParam:      hist.New(),
			EndpointSlice:      hist.New(),
		},
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /experiments", s.handleIndex)
	s.mux.HandleFunc("GET /experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// indexResponse is the /experiments body. Families describes the
// parameterized spaces this process serves — the discoverable schema
// behind GET /experiments/{family}?param=...; experiments without a
// family entry take no parameters.
type indexResponse struct {
	RegistryVersion string                 `json:"registry_version"`
	Experiments     []string               `json:"experiments"`
	Families        map[string]indexFamily `json:"families,omitempty"`
}

// indexFamily is one family's index entry: its doc line, space version
// (the per-family cache-identity generation), and parameter schema.
type indexFamily struct {
	Doc          string       `json:"doc,omitempty"`
	SpaceVersion string       `json:"space_version"`
	Params       []indexParam `json:"params"`
}

// indexParam is one parameter's published schema.
type indexParam struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Default string  `json:"default"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Doc     string  `json:"doc,omitempty"`
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	var families map[string]indexFamily
	if len(s.families) > 0 {
		families = make(map[string]indexFamily, len(s.families))
		for id, fam := range s.families {
			entry := indexFamily{
				Doc:          fam.Doc,
				SpaceVersion: experiments.SpaceVersion(id),
				Params:       make([]indexParam, 0, len(fam.Params)),
			}
			for _, spec := range fam.Params {
				entry.Params = append(entry.Params, indexParam{
					Name:    spec.Name,
					Kind:    spec.Kind.String(),
					Default: spec.Default,
					Min:     spec.Min,
					Max:     spec.Max,
					Doc:     spec.Doc,
				})
			}
			sort.Slice(entry.Params, func(a, b int) bool { return entry.Params[a].Name < entry.Params[b].Name })
			families[id] = entry
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(indexResponse{
		RegistryVersion: experiments.RegistryVersion,
		Experiments:     s.ids,
		Families:        families,
	})
}

// contentTypes maps encoder formats to their media type.
var contentTypes = map[string]string{
	"text": "text/plain; charset=utf-8",
	"json": "application/json",
	"csv":  "text/csv",
}

// requestID extracts the request's trace ID from the Repro-Request-ID
// header, minting one when the server is the edge, and echoes it on
// the response so the client can fetch /trace/{id} afterwards even
// when it did not mint.
func (s *Server) requestID(w http.ResponseWriter, r *http.Request) string {
	reqID := r.Header.Get(trace.Header)
	if reqID == "" {
		reqID = trace.NewID()
	}
	w.Header().Set(trace.Header, reqID)
	s.journal.Start(reqID, "GET "+r.URL.RequestURI())
	s.journal.Add(reqID, trace.Event{Kind: trace.KindRequest, Detail: "GET " + r.URL.RequestURI()})
	return reqID
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	if _, ok := s.reg[id]; !ok {
		http.Error(w, fmt.Sprintf("unknown experiment %q", id), http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	// Every query key that is not serving machinery (format, prefixes)
	// is a parameter of the experiment's family. Parsing validates and
	// canonicalizes the point; a spelled-out default point comes back
	// with Canonical "" and follows the fixed experiment's path — one
	// cache entry, one singleflight — no matter how it was spelled.
	paramQuery := url.Values{}
	for name, vals := range q {
		if name == "format" || name == "prefixes" {
			continue
		}
		paramQuery[name] = vals
	}
	var ps experiments.ParamSet
	if len(paramQuery) > 0 {
		fam, ok := s.families[id]
		if !ok {
			http.Error(w, fmt.Sprintf("experiment %q takes no parameters", id), http.StatusBadRequest)
			return
		}
		var err error
		ps, err = experiments.ParseParams(fam, paramQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if prefixes := q.Get("prefixes"); prefixes != "" {
		s.handlePrefixes(w, r, id, ps, prefixes, start)
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "text"
	}
	encode, err := experiments.LookupEncoder(format)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reqID := s.requestID(w, r)

	s.requests.Add(1)
	s.inFlight.Add(1)
	var res experiments.Result
	var shared bool
	endpoint := EndpointExperiment
	if ps.Canonical() != "" {
		endpoint = EndpointParam
		res, shared, err = s.executeParam(reqID, id, ps)
	} else {
		res, shared, err = s.execute(reqID, id)
	}
	s.inFlight.Add(-1)
	s.record(endpoint, id, time.Since(start), err != nil || res.Err != nil)
	switch {
	case shared:
		s.journal.Add(reqID, trace.Event{Kind: trace.KindCoalesce,
			Detail: "joined an in-flight execution or cooldown window"})
	case err == nil && res.Cached:
		s.journal.Add(reqID, trace.Event{Kind: trace.KindCacheHit})
	case err == nil:
		s.journal.Add(reqID, trace.Event{Kind: trace.KindCacheMiss})
	}
	if err != nil {
		// Engine configuration errors only; the id was validated, so
		// this is a server bug rather than a client mistake.
		s.traceDone(reqID, http.StatusInternalServerError, start)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	// Encode before writing headers so an encoder error cannot corrupt
	// a 200 response, and a failed experiment can carry a 500 status
	// around its encoded error form.
	var body bytes.Buffer
	if err := encode(&body, []experiments.Result{res}); err != nil {
		s.traceDone(reqID, http.StatusInternalServerError, start)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	status := http.StatusOK
	if res.Err != nil {
		status = http.StatusInternalServerError
	}
	s.traceDone(reqID, status, start)
	w.Header().Set("Content-Type", contentTypes[format])
	w.Header().Set(RegistryVersionHeader, experiments.RegistryVersion)
	w.WriteHeader(status)
	w.Write(body.Bytes())
	s.logf("figuresd: GET %s format=%s status=%d cached=%v shared=%v trace=%s in %v",
		r.URL.Path, format, status, res.Cached, shared, reqID, time.Since(start).Round(time.Millisecond))
}

// traceDone closes a request's span with its status and duration.
func (s *Server) traceDone(reqID string, status int, start time.Time) {
	s.journal.Add(reqID, trace.Event{Kind: trace.KindDone,
		Detail: fmt.Sprintf("status %d in %v", status, time.Since(start).Round(time.Microsecond))})
}

// sliceOutcome is the singleflight value of one slice request: the
// wire envelope, and whether it came from the artifact store.
type sliceOutcome struct {
	env    experiments.ShardEnvelope
	cached bool
}

// handlePrefixes serves one slice of a shardable experiment's
// exploration space: GET /experiments/{id}?prefixes=... parses the
// forced-prefix ranges, explores exactly those subtrees, and responds
// with the JSON shard envelope (experiments.EncodeShard). When the
// cache is an artifact store (experiments.SliceCache), the store is
// consulted first and populated after — repeated sharded runs of the
// same space hit disk instead of re-exploring, the worker-level half
// of the fleet's read-through cache hierarchy. Identical slice
// requests share one execution through the singleflight group (keyed
// by the canonical prefix rendering, so equivalent spellings share
// too), and a timed-out slice starts the same cooldown as a timed-out
// experiment: a coordinator retry (and any future run of the same
// experiment) re-sends the byte-identical prefixes string, and
// without the cooldown each retry would stack another abandoned
// full-width explorer pool on the worker.
func (s *Server) handlePrefixes(w http.ResponseWriter, r *http.Request, id string, ps experiments.ParamSet, prefixes string, start time.Time) {
	if format := r.URL.Query().Get("format"); format != "" && format != "json" {
		http.Error(w, fmt.Sprintf("prefix slices are JSON only, not %q", format), http.StatusBadRequest)
		return
	}
	// At the default point the registered shardable serves (identical
	// bytes, shared cache entries); a non-default point carves its
	// family's space at that point.
	params := ps.Canonical()
	var sh experiments.Shardable
	if params == "" {
		var ok bool
		sh, ok = s.shardables[id]
		if !ok {
			http.Error(w, fmt.Sprintf("experiment %q is not prefix-shardable", id), http.StatusBadRequest)
			return
		}
	} else {
		fam := s.families[id] // present: handleExperiment parsed ps from it
		if fam.Shardable == nil {
			http.Error(w, fmt.Sprintf("experiment %q is not prefix-shardable", id), http.StatusBadRequest)
			return
		}
		sh = fam.Shardable(ps)
	}
	roots, err := experiments.ParsePrefixes(prefixes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	canonical := experiments.FormatPrefixes(roots)
	reqID := s.requestID(w, r)

	s.requests.Add(1)
	s.inFlight.Add(1)
	key := id + "\x00" + params + "\x00" + canonical
	var val any
	var shared bool
	if res, cooling := s.coolingDown(key); cooling {
		err, shared = res.Err, true
	} else {
		val, err, shared = s.flights.Do(key, func() (any, error) {
			return s.sliceEnvelope(reqID, sh, id, params, canonical, roots)
		})
		if err != nil && !shared && errors.Is(err, context.DeadlineExceeded) {
			s.startCooldown(key, experiments.Result{Err: err})
		}
	}
	s.inFlight.Add(-1)
	s.record(EndpointSlice, id, time.Since(start), err != nil)
	if shared {
		s.journal.Add(reqID, trace.Event{Kind: trace.KindCoalesce, Range: canonical,
			Detail: "joined an in-flight execution or cooldown window"})
	}
	if err != nil {
		// A prefix the scheduler cannot follow is the client's
		// mistake, not the server's: ParsePrefixes can only check
		// syntax and overlap, liveness is known after the replay.
		status := http.StatusInternalServerError
		if errors.Is(err, sched.ErrPrefixNotLive) {
			status = http.StatusBadRequest
		}
		s.traceDone(reqID, status, start)
		http.Error(w, err.Error(), status)
		return
	}
	out := val.(sliceOutcome)

	var body bytes.Buffer
	if err := experiments.EncodeShardEnvelope(&body, out.env); err != nil {
		s.traceDone(reqID, http.StatusInternalServerError, start)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.traceDone(reqID, http.StatusOK, start)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(RegistryVersionHeader, experiments.RegistryVersion)
	w.Write(body.Bytes())
	s.logf("figuresd: GET %s prefixes=%s roots=%d cached=%v shared=%v trace=%s in %v",
		r.URL.Path, canonical, len(roots), out.cached, shared, reqID, time.Since(start).Round(time.Millisecond))
}

// sliceEnvelope produces one slice's wire envelope: from the artifact
// store when a trustworthy entry exists, by exploring otherwise (and
// storing the fresh envelope back, best-effort). A stored envelope
// whose aggregate the experiment's own Decode rejects is treated as a
// miss and overwritten by the recomputation — the payload checksum
// guards the bytes, Decode guards the semantics. Each decision lands
// in the journal under reqID — the leader request's ID, since the
// singleflight runs this once per flight.
func (s *Server) sliceEnvelope(reqID string, sh experiments.Shardable, id, params, canonical string, roots [][]int) (sliceOutcome, error) {
	store, _ := s.cache.(experiments.SliceCache)
	if store != nil {
		if env, ok := store.GetSlice(id, params, canonical); ok {
			if _, err := sh.Decode(env.Aggregate); err == nil {
				s.journal.Add(reqID, trace.Event{Kind: trace.KindSliceCacheHit, Range: canonical})
				return sliceOutcome{env: env, cached: true}, nil
			}
		}
		s.journal.Add(reqID, trace.Event{Kind: trace.KindSliceCacheMiss, Range: canonical})
	}
	exploreStart := time.Now()
	agg, err := s.exploreSlice(sh, roots)
	if err != nil {
		return sliceOutcome{}, err
	}
	s.journal.Add(reqID, trace.Event{Kind: trace.KindExplore, Range: canonical,
		Detail: fmt.Sprintf("explored in %v", time.Since(exploreStart).Round(time.Microsecond))})
	env, err := experiments.NewShardEnvelope(id, params, roots, agg)
	if err != nil {
		return sliceOutcome{}, err
	}
	if store != nil {
		if err := store.PutSlice(env); err == nil { // best-effort, like the engine's Put
			s.journal.Add(reqID, trace.Event{Kind: trace.KindSliceCacheStore, Range: canonical})
		}
	}
	return sliceOutcome{env: env}, nil
}

// sliceExploreSlots bounds concurrent slice explorations per server.
// Each Explore fans out across every core, so unbounded concurrent
// slices would stack full-width explorer pools; two slots match the
// coordinator's ~two-ranges-per-worker carve (its normal load runs
// uncontended), and anything beyond queues into the timeout window —
// backpressure the coordinator answers by failing over to a
// less-loaded worker.
const sliceExploreSlots = 2

// exploreSlice runs one Shardable.Explore under the per-execution
// timeout, holding one of the server's exploration slots (queue time
// counts toward the timeout). Like the engine's runners, an
// exploration takes no context: on timeout its goroutine is abandoned
// until it returns.
func (s *Server) exploreSlice(sh experiments.Shardable, roots [][]int) (experiments.Aggregate, error) {
	type outcome struct {
		agg experiments.Aggregate
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				ch <- outcome{err: fmt.Errorf("slice exploration panicked: %v", rec)}
			}
		}()
		s.exploreSem <- struct{}{}
		defer func() { <-s.exploreSem }()
		agg, err := sh.Explore(roots)
		if err == nil && agg == nil {
			err = fmt.Errorf("slice exploration returned no aggregate")
		}
		ch <- outcome{agg: agg, err: err}
	}()
	var timer <-chan time.Time
	if s.timeout > 0 {
		t := time.NewTimer(s.timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case o := <-ch:
		return o.agg, o.err
	case <-timer:
		return nil, fmt.Errorf("slice timed out after %v: %w", s.timeout, context.DeadlineExceeded)
	}
}

// execute runs one experiment through the singleflight group. The
// execution uses a context detached from any request so that the
// result every waiter shares cannot be cancelled by whichever client
// happened to arrive first; the per-execution timeout bounds it
// instead.
//
// A timed-out execution abandons its runner goroutine (the engine's
// documented behavior for runners, which take no context), so an
// immediate retry would stack a second copy of the same computation
// on top of the first. The cooldown guards against that: after a
// timeout, requests for the same experiment are served the recorded
// timeout failure — without executing — until one timeout period has
// passed, bounding the abandoned work to at most one runner per
// experiment per period no matter how aggressively clients retry.
//
// reqID is the calling request's trace ID; the detached execution
// context carries it (and nothing else from the request), so a
// backend coordinator's decisions land in the leader's span while a
// client disconnect still cannot cancel the shared execution.
func (s *Server) execute(reqID, id string) (experiments.Result, bool, error) {
	if res, ok := s.coolingDown(id); ok {
		return res, true, nil
	}
	val, err, shared := s.flights.Do(id, func() (any, error) {
		timeout := s.timeout
		if timeout < 0 {
			timeout = 0
		}
		if s.backend != nil {
			ctx := trace.WithID(context.Background(), reqID)
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			res, err := s.backend(ctx, id)
			return res, err
		}
		results, err := experiments.Run(context.Background(), experiments.Options{
			IDs:      []string{id},
			Timeout:  timeout,
			Registry: s.reg,
			Cache:    s.cache,
		})
		if err != nil {
			return experiments.Result{}, err
		}
		// Inside the flight: counted once per execution, not once per
		// waiter sharing it.
		s.recordExploration(results[0])
		return results[0], nil
	})
	if err != nil {
		return experiments.Result{}, shared, err
	}
	res := val.(experiments.Result)
	if !shared && res.Err != nil && errors.Is(res.Err, context.DeadlineExceeded) {
		s.startCooldown(id, res)
	}
	return res, shared, nil
}

// executeParam runs one non-default parameter point through the
// singleflight group, with the same detached context, timeout, and
// cooldown contract as execute. The flight and cooldown key is the
// family id plus the point's canonical rendering, so every spelling of
// a point shares one execution — and never collides with the fixed
// experiment's key or a slice's (the literal "params" segment cannot
// appear in either).
func (s *Server) executeParam(reqID, id string, ps experiments.ParamSet) (experiments.Result, bool, error) {
	key := id + "\x00params\x00" + ps.Canonical()
	if res, ok := s.coolingDown(key); ok {
		return res, true, nil
	}
	val, err, shared := s.flights.Do(key, func() (any, error) {
		timeout := s.timeout
		if timeout < 0 {
			timeout = 0
		}
		if s.paramBackend != nil {
			ctx := trace.WithID(context.Background(), reqID)
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			return s.paramBackend(ctx, id, ps)
		}
		fam := s.families[id]
		res := experiments.RunParam(context.Background(), fam, ps, experiments.Options{
			Timeout: timeout,
			Cache:   s.cache,
		})
		s.recordExploration(res)
		return res, nil
	})
	if err != nil {
		return experiments.Result{}, shared, err
	}
	res := val.(experiments.Result)
	if !shared && res.Err != nil && errors.Is(res.Err, context.DeadlineExceeded) {
		s.startCooldown(key, res)
	}
	return res, shared, nil
}

// cooldownEntry records a timed-out execution to serve in place of
// re-execution until the deadline passes.
type cooldownEntry struct {
	until time.Time
	res   experiments.Result
}

// coolingDown reports whether key — an experiment id, or a slice's
// id+prefixes flight key — recently timed out, returning the recorded
// failure to serve instead of executing again.
func (s *Server) coolingDown(id string) (experiments.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cooldowns[id]
	if !ok {
		return experiments.Result{}, false
	}
	if time.Now().After(e.until) {
		delete(s.cooldowns, id)
		return experiments.Result{}, false
	}
	return e.res, true
}

// startCooldown opens a one-timeout-long window during which id's
// recorded timeout failure is served without executing. The window
// matches the execution timeout: by then the abandoned runner has
// either finished (freeing its core) or proven the experiment needs a
// bigger -timeout, and one more probe per window is an acceptable
// cost either way.
func (s *Server) startCooldown(id string, res experiments.Result) {
	window := s.timeout
	if window <= 0 {
		return // no timeout configured, so nothing can have timed out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cooldowns[id] = cooldownEntry{until: time.Now().Add(window), res: res}
}
