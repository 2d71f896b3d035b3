package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/agreement"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/hist"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/trace"
)

// perLayer are the --trace 1 metrics, in report order. Every workload
// prints all of them; a count or share of a layer the workload does not
// exercise reads 0. Every time here is measured on every workload.
var perLayer = []struct{ name, unit string }{
	{"sched.step_ns", "ns"},
	{"sched.replay_us", "us"},
	{"sched.canon_ns", "ns"},
	{"experiments.E1.run_ms", "ms"},
	{"experiments.E2.run_ms", "ms"},
	{"experiments.E3.run_ms", "ms"},
	{"experiments.E4.run_ms", "ms"},
	{"experiments.E5.run_ms", "ms"},
	{"experiments.E6.run_ms", "ms"},
	{"experiments.E7.run_ms", "ms"},
	{"experiments.E8.run_ms", "ms"},
	{"experiments.E9.run_ms", "ms"},
	{"experiments.E10.run_ms", "ms"},
	{"experiments.E11.run_ms", "ms"},
	{"experiments.E12.run_ms", "ms"},
	{"experiments.E13.run_ms", "ms"},
	{"experiments.E14.run_ms", "ms"},
	{"experiments.E15.run_ms", "ms"},
	{"experiments.pool_util", "ratio"},
	{"experiments.encode_text_us", "us"},
	{"experiments.encode_json_us", "us"},
	{"experiments.encode_csv_us", "us"},
	{"experiments.decode_json_us", "us"},
	{"cache.get_hit_us", "us"},
	{"cache.get_miss_us", "us"},
	{"cache.put_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.puts", "count"},
	{"server.handler_us", "us"},
	{"server.http_rtt_us", "us"},
	{"shard.fetches", "count"},
	{"shard.ranges_remote", "count"},
	{"shard.ranges_local", "count"},
	{"shard.retries", "count"},
	{"shard.fallbacks", "count"},
	{"hist.record_ns", "ns"},
	{"trace.event_ns", "ns"},
	{"self.client_share", "ratio"},
	{"self.experiments_share", "ratio"},
	{"self.core_share", "ratio"},
	{"self.server_share", "ratio"},
	{"self.cache_share", "ratio"},
	{"self.shard_share", "ratio"},
	{"self.http_share", "ratio"},
	{"overhead.setup_s", "s"},
	{"overhead.op_p50_ms", "ms"},
	{"overhead.op_cpu_ms", "ms"},
	{"overhead.op_alloc_mb", "MB"},
}

// reportOnly are per-layer times only some workloads measure: they are
// printed for people but kept out of the JSON line, where a time that
// reads 0 on every run of a workload would not be a measurement.
var reportOnly = []struct{ name, unit string }{
	{"self.client_ms", "ms"},
	{"self.experiments_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.server_ms", "ms"},
	{"self.cache_ms", "ms"},
	{"self.shard_ms", "ms"},
	{"self.http_ms", "ms"},
	{"shard.fetch_p50_ms", "ms"},
	{"serve.req_p99_ms", "ms"},
	{"serve.max_qps", "1/s"},
	{"loadgen.lateness_p99_ms", "ms"},
}

// probeBudget is the wall time each layer probe spends measuring.
const probeBudget = 150 * time.Millisecond

// timePer calls op in growing batches until probeBudget is spent and
// returns the median time per call over the batches, in nanoseconds.
func timePer(op func(i int)) float64 {
	var perCall []float64
	n, i := 1, 0
	deadline := time.Now().Add(probeBudget)
	for len(perCall) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		for k := 0; k < n; k++ {
			op(i)
			i++
		}
		el := time.Since(start)
		perCall = append(perCall, float64(el)/float64(n))
		if el < 10*time.Millisecond {
			n *= 2
		}
	}
	return median(perCall)
}

var sink any

// probeLayers times one call into each layer in isolation: the unit
// costs the workloads' end-to-end figures are made of.
func probeLayers(ref *reference, dir string) map[string]float64 {
	out := map[string]float64{}
	probeSched(out)
	probeEncode(out, ref)
	probeRecorders(out)
	if err := probeCacheAndServer(out, ref, dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: probe:", err)
	}
	return out
}

// probeSched times sched.Run on Algorithm 1 with k = 3 under seeded
// random schedules, and one canonical-state fingerprint.
func probeSched(out map[string]float64) {
	const k = 3
	var steps, runs int
	perRun := timePer(func(i int) {
		m := agreement.NewAlg1Memory()
		var outs [2]agreement.Decision
		var decided [2]bool
		procs := []sched.ProcFunc{
			agreement.Alg1Proc(m, k, 0, &outs[0], &decided[0]),
			agreement.Alg1Proc(m, k, 1, &outs[1], &decided[1]),
		}
		res, err := sched.Run(sched.Config{Scheduler: sched.NewRandom(int64(i))}, procs)
		if err == nil {
			steps += res.TotalSteps
			runs++
		}
	})
	out["sched.replay_us"] = perRun / 1e3
	if steps > 0 {
		out["sched.step_ns"] = perRun * float64(runs) / float64(steps)
	}
	var c sched.Canonicalizer
	out["sched.canon_ns"] = timePer(func(i int) {
		c.Reset()
		c.Global(uint64(i), 7)
		c.Proc(uint64(i) * 0x9e3779b97f4a7c15)
		c.Proc(uint64(i) ^ 0xabcdef)
		c.Proc(3)
		sink = c.Key()
	})
}

// probeEncode times encoding one experiment's result in each format and
// decoding its JSON, averaged over the experiments.
func probeEncode(out map[string]float64, ref *reference) {
	ids := ref.ids
	for _, f := range formats {
		encode, _ := experiments.LookupEncoder(f)
		var buf bytes.Buffer
		out["experiments.encode_"+f+"_us"] = timePer(func(i int) {
			buf.Reset()
			encode(&buf, []experiments.Result{ref.byID[ids[i%len(ids)]]})
		}) / 1e3
	}
	bodies := make([][]byte, len(ids))
	for i, id := range ids {
		bodies[i], _ = ref.encode("json", []string{id})
	}
	out["experiments.decode_json_us"] = timePer(func(i int) {
		sink, _ = experiments.DecodeJSON(bytes.NewReader(bodies[i%len(bodies)]))
	}) / 1e3
}

// probeRecorders times one latency-histogram record and one trace
// journal event (a new request id every 16 events, as a server sees).
func probeRecorders(out map[string]float64) {
	h := hist.New()
	out["hist.record_ns"] = timePer(func(i int) { h.Record(time.Duration(i%5000) * time.Microsecond) })
	j := trace.NewJournal(0, 0)
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("probe-%d", i)
	}
	out["trace.event_ns"] = timePer(func(i int) {
		j.Add(ids[(i/16)%len(ids)], trace.Event{Kind: trace.KindCacheHit})
	})
}

// probeCacheAndServer times cache puts and gets on a fresh store, one
// in-process handler call and one loopback /healthz round trip.
func probeCacheAndServer(out map[string]float64, ref *reference, work string) error {
	dir, err := os.MkdirTemp(work, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	empty, err := cache.Open(filepath.Join(dir, "empty"), cache.Options{})
	if err != nil {
		return err
	}
	store, err := cache.Open(filepath.Join(dir, "warm"), cache.Options{})
	if err != nil {
		return err
	}
	ids := ref.ids
	out["cache.put_us"] = timePer(func(i int) { store.Put(ids[i%len(ids)], ref.byID[ids[i%len(ids)]]) }) / 1e3
	out["cache.get_hit_us"] = timePer(func(i int) { sink, _ = store.Get(ids[i%len(ids)]) }) / 1e3
	out["cache.get_miss_us"] = timePer(func(i int) { sink, _ = empty.Get(ids[i%len(ids)]) }) / 1e3

	srv := server.New(server.Options{Cache: store})
	paths := make([]string, 0, len(ids)*len(formats))
	for _, id := range ids {
		for _, f := range formats {
			paths = append(paths, "/experiments/"+id+"?format="+f)
		}
	}
	out["server.handler_us"] = timePer(func(i int) {
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil))
	}) / 1e3

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/healthz"
	out["server.http_rtt_us"] = timePer(func(int) {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}) / 1e3
	return nil
}
