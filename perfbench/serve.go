package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/server"
)

const (
	// serveRate is the fixed open-loop rate the serve latencies are
	// taken at: well under the capacity the ladder finds on a 2-core
	// host, so the figures describe service time, not queueing.
	serveRate = 400
	// p99Limit is the latency limit a ladder rung must keep its p99
	// under, timed from each request's due time.
	p99Limit = 5 * time.Millisecond
	// maxBehind is how far behind schedule the generator may fall
	// before it stops sending: the schedule is lost.
	maxBehind = time.Second
)

// ladder is the fixed set of rates above serveRate that max_qps is
// read from.
var ladder = []float64{800, 1100, 1600, 2200, 3200, 4500, 6400}

// serveWorkload is one in-process figuresd on a loopback listener, its
// cache warmed during set-up, driven by a seeded open loop of GETs over
// every experiment in every format. Cache reads, encoding, HTTP and the
// latency/trace recorders do all the work; the paper core does none.
type serveWorkload struct {
	dir     string
	store   *cache.Store
	hs      *http.Server
	client  *http.Client
	base    string
	targets []target
}

type target struct {
	path string
	want []byte
}

func (s *serveWorkload) setUp(b *bench, ref *reference) error {
	dir, err := os.MkdirTemp(b.work, "serve-")
	if err != nil {
		return err
	}
	s.dir = dir
	if s.store, err = cache.Open(dir, cache.Options{}); err != nil {
		return err
	}
	var c experiments.Cache = s.store
	active := &activeSpans{}
	if b.rec != nil {
		c = &tracedStore{Store: s.store, rec: b.rec, active: active}
	}
	for _, id := range ref.ids {
		if err := c.Put(id, ref.byID[id]); err != nil {
			return fmt.Errorf("warming the cache: %w", err)
		}
	}
	var h http.Handler = server.New(server.Options{Cache: c})
	if b.rec != nil {
		h = &tracedHandler{next: h, rec: b.rec, active: active}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: h}
	go s.hs.Serve(ln)
	s.base = "http://" + ln.Addr().String()
	conns := runtime.GOMAXPROCS(0)
	s.client = &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	s.targets = s.targets[:0]
	for _, id := range ref.ids {
		for _, f := range formats {
			want, err := ref.encode(f, []string{id})
			if err != nil {
				return err
			}
			s.targets = append(s.targets, target{path: "/experiments/" + id + "?format=" + f, want: want})
		}
	}
	// One pass over every target opens the connections and checks the
	// warm cache serves the reference bytes before anything is timed.
	for _, t := range s.targets {
		if err := s.get(b, t, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (s *serveWorkload) tearDown() {
	if s.hs != nil {
		s.hs.Close()
		s.client.CloseIdleConnections()
		s.hs = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// get sends one request and checks its body against the reference.
// trace is the operation's trace id (0 while untraced).
func (s *serveWorkload) get(b *bench, t target, trace int64) error {
	req, err := http.NewRequest(http.MethodGet, s.base+t.path, nil)
	if err != nil {
		return err
	}
	id, end := b.rec.begin(trace, 0, "client", "GET")
	defer end()
	if b.rec != nil {
		req.Header.Set(spanHeader, formatSpanHeader(trace, id))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("GET %s: status %d", t.path, resp.StatusCode)
	case !bytes.Equal(body, t.want):
		return fmt.Errorf("GET %s: body differs from the reference", t.path)
	}
	return nil
}

// loop is what one open-loop phase observed.
type loop struct {
	latMs, lateMs     []float64 // per request sent: from due time, and send lateness
	scheduled, failed int
	why               string
	cpu               time.Duration
	allocMB           float64
	behind            string // non-empty: lateness grew or the schedule was lost
	traces            []int64
}

// openLoop sends requests at rate for d on a fixed schedule, whatever
// the server's progress: request i is due at start + i/rate and is
// timed from then. GOMAXPROCS sender goroutines share the schedule,
// each holding at most one connection.
func (s *serveWorkload) openLoop(b *bench, rng *rand.Rand, rate float64, d time.Duration) loop {
	n := max(int(rate*d.Seconds()), 1)
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(len(s.targets))
	}
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]float64, n)
	late := make([]float64, n)
	errs := make([]error, n)
	traces := make([]int64, n)
	sent := make([]bool, n)
	var next atomic.Int64
	var lost atomic.Bool
	var wg sync.WaitGroup
	alloc0, cpu0 := heapAllocMB(), cpuTime()
	t0 := time.Now().Add(time.Millisecond)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !lost.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				sleepUntil(due)
				start := time.Now()
				if start.Sub(due) > maxBehind {
					lost.Store(true)
					return
				}
				if b.rec != nil {
					traces[i] = b.newTrace()
				}
				errs[i] = s.get(b, s.targets[seq[i]], traces[i])
				lat[i] = msOf(time.Since(due))
				late[i] = msOf(start.Sub(due))
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	out := loop{scheduled: n, cpu: cpuTime() - cpu0, allocMB: heapAllocMB() - alloc0}
	for i := range sent {
		if !sent[i] {
			continue
		}
		out.latMs = append(out.latMs, lat[i])
		out.lateMs = append(out.lateMs, late[i])
		if traces[i] != 0 {
			out.traces = append(out.traces, traces[i])
		}
		if errs[i] != nil {
			out.failed++
			out.why = errs[i].Error()
		}
	}
	if lost.Load() {
		out.behind = fmt.Sprintf("fell more than %v behind schedule at %g/s", maxBehind, rate)
		return out
	}
	// The schedule slipped if the last quarter of requests started
	// markedly later than the first quarter: a backlog that grows.
	if q := len(out.lateMs) / 4; q >= 10 {
		first, last := median(out.lateMs[:q]), median(out.lateMs[len(out.lateMs)-q:])
		if last > first+1 {
			out.behind = fmt.Sprintf("send lateness grew from %.3f to %.3f ms at %g/s", first, last, rate)
		}
	}
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's timers wake sleepers on a coarse grid (about 1 ms on a
// typical VM), which would add up to a millisecond of generator
// lateness to every request; nanosleep wakes within tens of
// microseconds. Signals (the runtime's preemption) cut a sleep short,
// hence the loop.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func (s *serveWorkload) measure(b *bench, d time.Duration) (*phase, error) {
	rng := rand.New(rand.NewSource(b.seed))
	ph := &phase{opName: "request", layer: map[string]float64{}}

	before := s.store.Stats()
	fixed := s.openLoop(b, rng, serveRate, d/2)
	after := s.store.Stats()
	ph.opMs = fixed.latMs
	ph.traces = fixed.traces
	ph.cpuMs = msOf(fixed.cpu) / float64(max(len(fixed.latMs), 1))
	ph.allocMB = fixed.allocMB / float64(max(len(fixed.latMs), 1))
	ph.attempted = fixed.scheduled
	ph.fail(fixed.failed+fixed.scheduled-len(fixed.latMs), fixed.why)
	ph.invalid = fixed.behind
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits+misses > 0 {
		ph.layer["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	// The fixed rate is the ladder's first rung, and max_qps the
	// highest rung whose p99 holds the limit with no growing backlog and
	// no failure. Every rung is tried, each with an equal share of the
	// ladder's time: on a VM an idle core can take milliseconds to wake,
	// so a low rung can miss the limit that a busier one keeps.
	holds := func(l loop) bool {
		return l.failed == 0 && l.behind == "" && quantile(l.latMs, 0.99) <= msOf(p99Limit)
	}
	note := func(rate float64, l loop) string { return fmt.Sprintf("%g:%.2fms", rate, quantile(l.latMs, 0.99)) }
	var maxQPS float64
	if holds(fixed) {
		maxQPS = serveRate
	}
	climbed := []string{note(serveRate, fixed)}
	rung := d / 2 / time.Duration(len(ladder))
	for _, rate := range ladder {
		// A rung past capacity leaves requests unsent: they were never
		// attempted, so only the ones sent count.
		l := s.openLoop(b, rng, rate, rung)
		ph.attempted += len(l.latMs)
		ph.fail(l.failed, l.why)
		climbed = append(climbed, note(rate, l))
		if holds(l) {
			maxQPS = rate
		}
	}

	lat, late := summarize(fixed.latMs), summarize(fixed.lateMs)
	ph.layer["serve.req_p99_ms"] = lat.P99
	ph.layer["serve.max_qps"] = maxQPS
	ph.layer["loadgen.lateness_p99_ms"] = late.P99
	ph.lines = []string{
		fmt.Sprintf("%-22s %12.4f ms   n=%d at a fixed %d/s open loop, from due time", "req_p50_ms", lat.P50, lat.N, serveRate),
		fmt.Sprintf("%-22s %12.4f ms   n=%d (%d beyond it)", "req_p99_ms", lat.P99, lat.N, lat.N/100),
		fmt.Sprintf("%-22s %12.4f ms   CPU per request at the fixed rate", "req_cpu_ms", ph.cpuMs),
		fmt.Sprintf("%-22s %12.0f 1/s  highest ladder rung with p99 <= %v and no backlog; p99 by rung %v",
			"max_qps", maxQPS, p99Limit, climbed),
		fmt.Sprintf("%-22s %12.4f ms   p50 %.4f ms, n=%d", "lateness_p99_ms", late.P99, late.P50, late.N),
	}
	return ph, nil
}
