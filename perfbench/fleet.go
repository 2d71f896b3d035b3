package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
)

// fleetWorkload runs cold default sweeps through a shard coordinator
// (MaxInFlight 1) over two in-process figuresd workers on loopback.
// Every sweep starts on fresh, empty worker caches, so each experiment
// is a cache miss plus a put, and the prefix-shardable experiments
// (E2, E15) cross the HTTP hop as slices. The ids go in index order:
// the coordinator balances workers by request count, so its makespan
// depends on the order, and a seeded order per sweep made the per-run
// median swing by a fifth between seeds.
type fleetWorkload struct {
	ref     *reference
	workers []*fleetWorker
	coord   *shard.Coordinator
	// transport is the coordinator's traced transport (nil untraced).
	transport *tracedTransport
}

// fleetWorker is one listener whose figuresd can be replaced between
// sweeps without closing the connections the coordinator holds.
type fleetWorker struct {
	hs      *http.Server
	addr    string
	current atomic.Pointer[http.Handler]
	dir     string
	store   *cache.Store
	traced  *tracedStore
}

func (w *fleetWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	(*w.current.Load()).ServeHTTP(rw, r)
}

// fresh gives the worker a new figuresd over a new, empty store.
func (w *fleetWorker) fresh(b *bench) error {
	old := w.dir
	dir, err := os.MkdirTemp(b.work, "worker-")
	if err != nil {
		return err
	}
	if w.store, err = cache.Open(dir, cache.Options{}); err != nil {
		return err
	}
	w.dir = dir
	var c experiments.Cache = w.store
	active := &activeSpans{}
	if b.rec != nil {
		w.traced = &tracedStore{Store: w.store, rec: b.rec, active: active}
		c = w.traced
	}
	var h http.Handler = server.New(server.Options{Cache: c})
	if b.rec != nil {
		h = &tracedHandler{next: h, rec: b.rec, active: active}
	}
	w.current.Store(&h)
	if old != "" {
		os.RemoveAll(old)
	}
	return nil
}

func (f *fleetWorkload) setUp(b *bench, ref *reference) error {
	f.ref = ref
	addrs := make([]string, 2)
	for i := range addrs {
		w := &fleetWorker{}
		if err := w.fresh(b); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w.hs = &http.Server{Handler: w}
		go w.hs.Serve(ln)
		w.addr = ln.Addr().String()
		addrs[i] = w.addr
		f.workers = append(f.workers, w)
	}
	opts := shard.Options{Workers: addrs, MaxInFlight: 1}
	if b.rec != nil {
		// The coordinator's own default client, rebuilt here only to
		// slip the tracing transport underneath it.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 1
		tr.IdleConnTimeout = 90 * time.Second
		f.transport = &tracedTransport{next: tr, rec: b.rec}
		opts.Client = &http.Client{Transport: f.transport}
	}
	var err error
	if f.coord, err = shard.New(opts); err != nil {
		return err
	}
	if st := f.coord.Stats(); st.WorkersHealthy != len(addrs) {
		return fmt.Errorf("fleet: %d of %d workers healthy", st.WorkersHealthy, len(addrs))
	}
	return nil
}

func (f *fleetWorkload) tearDown() {
	for _, w := range f.workers {
		w.hs.Close()
		os.RemoveAll(w.dir)
	}
	f.workers = nil
}

func (f *fleetWorkload) measure(b *bench, d time.Duration) (*phase, error) {
	ph := &phase{opName: "experiment result", layer: map[string]float64{}}
	var cpuMs, allocMB []float64
	var sweeps, puts, hits, lookups int64
	shardTotals := map[string]float64{}
	before := f.coord.Stats()
	deadline := time.Now().Add(d)
	for len(ph.opMs) == 0 || time.Now().Before(deadline) {
		for _, w := range f.workers {
			if err := w.fresh(b); err != nil {
				return nil, err
			}
		}
		ids := f.ref.ids
		tr := b.newTrace()
		ph.traces = append(ph.traces, tr)
		rootID, endRoot := b.rec.begin(tr, 0, "client", "sweep")
		runSpan, endRun := b.rec.begin(tr, rootID, "shard", "shard.Coordinator.Run")
		ctx := context.Background()
		if b.rec != nil {
			// The coordinator sends its trace id with every fetch, where
			// the tracing transport reads the parent span back out.
			ctx = trace.WithID(ctx, formatSpanHeader(tr, runSpan))
		}
		alloc0, cpu0, start := heapAllocMB(), cpuTime(), time.Now()
		results, err := f.coord.Run(ctx, ids)
		wall, cpu, alloc := time.Since(start), cpuTime()-cpu0, heapAllocMB()-alloc0
		endRun()
		_, endStats := b.rec.begin(tr, rootID, "shard", "shard.Coordinator.Stats")
		st := f.coord.Stats()
		endStats()
		endRoot()
		if err != nil {
			return nil, err
		}
		ph.opMs = append(ph.opMs, msOf(wall))
		cpuMs = append(cpuMs, msOf(cpu))
		allocMB = append(allocMB, alloc)
		ph.attempted += len(ids)
		if n, why := f.ref.check(ids, results); n > 0 {
			ph.fail(n, why)
		}
		for _, w := range f.workers {
			cs := w.store.Stats()
			hits += cs.Hits
			lookups += cs.Hits + cs.Misses
			if w.traced != nil {
				puts += w.traced.puts.Load()
			}
		}
		addShardDelta(shardTotals, before, st)
		before = st
		sweeps++
	}
	for k, v := range shardTotals {
		ph.layer[k] = v / float64(sweeps)
	}
	ph.cpuMs, ph.allocMB = median(cpuMs), median(allocMB)
	if lookups > 0 {
		ph.layer["cache.hit_ratio"] = float64(hits) / float64(lookups)
	}
	if f.transport != nil {
		ph.layer["cache.puts"] = float64(puts) / float64(sweeps)
		f.transport.mu.Lock()
		ph.layer["shard.fetch_p50_ms"] = median(f.transport.fetchMs)
		f.transport.mu.Unlock()
	}
	sw := summarize(ph.opMs)
	ph.lines = []string{
		fmt.Sprintf("%-22s %12.4f s    median of %d cold fleet sweeps, 2 workers, MaxInFlight 1; each %s", "sweep_s", sw.P50/1e3, sw.N, seconds(ph.opMs)),
		fmt.Sprintf("%-22s %12.4f s    median CPU per sweep, coordinator and workers together", "sweep_cpu_s", ph.cpuMs/1e3),
		fmt.Sprintf("%-22s %12.1f      per sweep; %.1f ranges remote, %.1f local, %.1f retries, %.1f fallbacks",
			"shard.fetches", ph.layer["shard.fetches"], ph.layer["shard.ranges_remote"],
			ph.layer["shard.ranges_local"], ph.layer["shard.retries"], ph.layer["shard.fallbacks"]),
	}
	return ph, nil
}

// addShardDelta adds the coordinator counters that moved between two
// snapshots into totals.
func addShardDelta(totals map[string]float64, before, after shard.Stats) {
	for i, w := range after.Workers {
		totals["shard.fetches"] += float64(w.Fetches - before.Workers[i].Fetches)
	}
	totals["shard.ranges_remote"] += float64(after.PrefixRangesRemote - before.PrefixRangesRemote)
	totals["shard.ranges_local"] += float64(after.PrefixRangesLocal - before.PrefixRangesLocal)
	totals["shard.retries"] += float64(after.Failovers - before.Failovers)
	totals["shard.fallbacks"] += float64(after.Local - before.Local)
}
