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
// A request is one pair, an experiment id and a parameter point
// (experiments.ParamSet); the default point is the fixed experiment,
// and both run down one path, experiments.RunPoint. Execution is
// pluggable through Options.Backend, which takes the same pair:
// cmd/figuresd -peers installs a shard.Coordinator there, turning one
// daemon into the front door of a fleet for fixed experiments and
// parameter points alike while keeping every serving-layer guarantee.
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
// experiment response, so a shard coordinator can refuse to
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
	// experiments.Options.Cache).
	Cache experiments.Cache
	// Timeout bounds each experiment execution; 0 means
	// DefaultTimeout, negative means no limit.
	Timeout time.Duration
	// Backend, when non-nil, replaces the in-process engine for
	// experiment execution — the fixed experiment (the default point,
	// Canonical "") and every parameter point alike: the singleflight,
	// detached timeout (via the context's deadline), and cooldown
	// still apply, but the result comes from the backend.
	// cmd/figuresd -peers wires shard.Coordinator.RunOne in here so
	// one daemon fronts a fleet. A backend owns its own caching;
	// Options.Cache is not consulted around it.
	Backend func(ctx context.Context, id string, ps experiments.ParamSet) (experiments.Result, error)
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
//	GET /healthz                             liveness probe
//	GET /stats                               operational counters (JSON)
type Server struct {
	reg      map[string]experiments.Runner
	ids      []string
	cache    experiments.Cache
	timeout  time.Duration
	backend  func(ctx context.Context, id string, ps experiments.ParamSet) (experiments.Result, error)
	families map[string]experiments.Family
	journal  *trace.Journal
	logf     func(format string, args ...any)
	flights  flightGroup
	mux      *http.ServeMux

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
	families := opts.Families
	if families == nil {
		families = experiments.FamiliesFor(opts.Registry)
	}
	journal := opts.Journal
	if journal == nil {
		journal = trace.NewJournal(0, 0)
	}
	s := &Server{
		reg:       reg,
		ids:       ids,
		cache:     opts.Cache,
		timeout:   timeout,
		backend:   opts.Backend,
		families:  families,
		journal:   journal,
		logf:      logf,
		mux:       http.NewServeMux(),
		cooldowns: make(map[string]cooldownEntry),
		perExp:    make(map[string]*expStat),
		endpointLat: map[string]*hist.Histogram{
			EndpointExperiment: hist.New(),
			EndpointParam:      hist.New(),
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

// indexParam is one parameter's published schema. Every parameter is an
// integer; Kind says so on the wire for clients that read the schema.
type indexParam struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Default string `json:"default"`
	Min     int    `json:"min"`
	Max     int    `json:"max"`
	Doc     string `json:"doc,omitempty"`
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
					Kind:    "int",
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
	// Every query key but format is a parameter of the experiment's
	// family. Parsing validates and canonicalizes the point (an unknown
	// key is a 400); a spelled-out default point comes back with
	// Canonical "" and follows the fixed experiment's path — one cache
	// entry, one singleflight — no matter how it was spelled.
	paramQuery := url.Values{}
	for name, vals := range q {
		if name == "format" {
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
	res, shared, err := s.execute(reqID, id, ps)
	s.inFlight.Add(-1)
	endpoint := EndpointExperiment
	if ps.Canonical() != "" {
		endpoint = EndpointParam
	}
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

// execute runs one request — experiment id at point ps — through the
// singleflight group. The flight and cooldown key is id at the default
// point (the fixed experiment) and id plus the point's canonical
// rendering otherwise, so every spelling of a point shares one
// execution and never collides with the fixed experiment's key (the
// literal "params" segment cannot appear in an id).
//
// The execution uses a context detached from any request so that the
// result every waiter shares cannot be cancelled by whichever client
// happened to arrive first; the per-execution timeout bounds it
// instead.
//
// A timed-out execution abandons its runner goroutine (the engine's
// documented behavior for runners, which take no context), so an
// immediate retry would stack a second copy of the same computation
// on top of the first. The cooldown guards against that: after a
// timeout, requests for the same key are served the recorded timeout
// failure — without executing — until one timeout period has passed,
// bounding the abandoned work to at most one runner per key per period
// no matter how aggressively clients retry.
//
// reqID is the calling request's trace ID; the detached execution
// context carries it (and nothing else from the request), so a
// backend coordinator's decisions land in the leader's span while a
// client disconnect still cannot cancel the shared execution.
func (s *Server) execute(reqID, id string, ps experiments.ParamSet) (experiments.Result, bool, error) {
	key := id
	if p := ps.Canonical(); p != "" {
		key = id + "\x00params\x00" + p
	}
	if res, ok := s.coolingDown(key); ok {
		return res, true, nil
	}
	val, err, shared := s.flights.Do(key, func() (any, error) {
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
			return s.backend(ctx, id, ps)
		}
		res, err := experiments.RunPoint(context.Background(), id, ps, experiments.Options{
			Timeout:  timeout,
			Registry: s.reg,
			Cache:    s.cache,
		})
		if err != nil {
			return experiments.Result{}, err
		}
		// Inside the flight: counted once per execution, not once per
		// waiter sharing it.
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

// coolingDown reports whether key — an experiment id, or a parameter
// point's flight key — recently timed out, returning the recorded
// failure to serve instead of executing again.
func (s *Server) coolingDown(key string) (experiments.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cooldowns[key]
	if !ok {
		return experiments.Result{}, false
	}
	if time.Now().After(e.until) {
		delete(s.cooldowns, key)
		return experiments.Result{}, false
	}
	return e.res, true
}

// startCooldown opens a one-timeout-long window during which key's
// recorded timeout failure is served without executing. The window
// matches the execution timeout: by then the abandoned runner has
// either finished (freeing its core) or proven the experiment needs a
// bigger -timeout, and one more probe per window is an acceptable
// cost either way.
func (s *Server) startCooldown(key string, res experiments.Result) {
	window := s.timeout
	if window <= 0 {
		return // no timeout configured, so nothing can have timed out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cooldowns[key] = cooldownEntry{until: time.Now().Add(window), res: res}
}
