// Command perfbench is the repository's benchmark: it drives the
// experiment engine, the cache, figuresd and the shard coordinator
// in-process on one of three workloads (sweep, serve, fleet), checks
// every output against a serial reference run, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics and tracing
// overhead (--trace 1). The last line of standard output is one JSON
// object; the lines before it are the same figures for people.
//
//	go run . --workload sweep --seed 1 --seconds 15 --trace 0
//
// Run it from the repository root (perfbench/run.py does the build and
// keeps its caches in .bench_build). See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// opTimeout bounds one experiment or request: anything slower counts as
// a failed operation instead of stalling the run.
const opTimeout = 60 * time.Second

// setUps is how many times a --trace 0 run sets up; setup_s is the
// median.
const setUps = 3

// bench is the state one run shares across its workload.
type bench struct {
	seed int64
	work string    // scratch directory for stores and spans
	rec  *recorder // nil while untraced
	// traces numbers operations; trace ids start at 1 (0 is set-up).
	traces atomic.Int64
}

func (b *bench) newTrace() int64 { return b.traces.Add(1) }

// workload is one way of driving the system under test.
type workload interface {
	// setUp brings the system to its measuring state, checking against
	// ref. A later setUp follows a tearDown.
	setUp(b *bench, ref *reference) error
	// measure runs operations for about d.
	measure(b *bench, d time.Duration) (*phase, error)
	tearDown()
}

// phase is what one measurement observed.
type phase struct {
	opMs    []float64 // wall time of each operation
	cpuMs   float64   // process CPU per operation
	allocMB float64   // heap allocated per operation
	opName  string    // what one operation is, for the report
	// attempted and failed count operations; why describes a failure.
	attempted, failed int
	why               string
	// invalid is set when the load generator could not keep its
	// schedule: the figures are then not a measurement of the system.
	invalid string
	// traces holds the operation trace ids recorded in this phase.
	traces []int64
	// layer holds per-layer figures the workload measured itself.
	layer map[string]float64
	// lines are the workload's own report lines.
	lines []string
	// mem summarizes the memory samples taken while measuring.
	mem dist
}

func (p *phase) fail(n int, why string) {
	p.failed += n
	if why != "" {
		p.why = why
	}
}

var workloads = map[string]func() workload{
	"sweep": func() workload { return &sweepWorkload{} },
	"serve": func() workload { return &serveWorkload{} },
	"fleet": func() workload { return &fleetWorkload{} },
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, serve or fleet")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 15, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory")
	flag.Parse()
	newWorkload, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|serve|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d %s\n",
		*name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.Version())
	if err := run(newWorkload, *name, *seed, *work, d, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints the JSON line, in a scratch
// directory of its own under work that it removes again.
func run(newWorkload func() workload, name string, seed int64, work string, d time.Duration, traced bool) error {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{seed: seed, work: dir}
	var out *result
	if traced {
		out, err = runTraced(b, newWorkload, d, name)
	} else {
		out, err = runUntraced(b, newWorkload(), d)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the --trace 0 metrics, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},      // set-up time, median of the set-ups in the run
	{"op_p50_ms", "ms"},   // median wall time of one operation
	{"op_cpu_ms", "ms"},   // process user+sys CPU per operation
	{"op_alloc_mb", "MB"}, // heap allocated per operation
}

// setUp builds a fresh reference and sets the workload up on it,
// returning the wall time both took.
func setUp(b *bench, w workload, prev *reference) (*reference, float64, error) {
	start := time.Now()
	ref, err := buildReference(b)
	if err != nil {
		return nil, 0, err
	}
	if prev != nil && string(prev.json) != string(ref.json) {
		return nil, 0, fmt.Errorf("two serial reference sweeps disagree")
	}
	if err := w.setUp(b, ref); err != nil {
		return nil, 0, err
	}
	return ref, time.Since(start).Seconds(), nil
}

// e2e holds one measurement's end-to-end figures.
type e2e map[string]float64

func endToEndOf(setupS float64, ph *phase) e2e {
	return e2e{
		"setup_s":     setupS,
		"op_p50_ms":   median(ph.opMs),
		"op_cpu_ms":   ph.cpuMs,
		"op_alloc_mb": ph.allocMB,
	}
}

// measure runs one measurement with the set-up's garbage returned to
// the OS first, so the memory samples are the workload's own.
func measure(b *bench, w workload, d time.Duration) (*phase, error) {
	runtime.GC()
	debug.FreeOSMemory()
	stop := sampleMem()
	ph, err := w.measure(b, d)
	mem := stop()
	if err != nil {
		return nil, err
	}
	ph.mem = summarize(mem)
	return ph, nil
}

// runUntraced sets up setUps times and measures once.
func runUntraced(b *bench, w workload, d time.Duration) (*result, error) {
	var setupS []float64
	var ref *reference
	for i := 0; i < setUps; i++ {
		if i > 0 {
			w.tearDown()
		}
		var s float64
		var err error
		if ref, s, err = setUp(b, w, ref); err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	defer w.tearDown()
	ph, err := measure(b, w, d)
	if err != nil {
		return nil, err
	}
	m := endToEndOf(median(setupS), ph)
	report(ph, m, fmt.Sprintf("median of %d set-ups", len(setupS)))
	out := resultOf(ph)
	for _, e := range endToEnd {
		out.Metrics[e.name] = metric{m[e.name], e.unit}
	}
	return out, nil
}

// resultOf starts the JSON line for the given phases: correct when no
// operation failed and the load generator kept its schedule.
func resultOf(phases ...*phase) *result {
	out := &result{Correct: true, Metrics: map[string]metric{}}
	for _, ph := range phases {
		out.Attempted += ph.attempted
		out.Failed += ph.failed
		out.Correct = out.Correct && ph.failed == 0 && ph.invalid == ""
	}
	out.Attempted = max(out.Attempted, 1)
	return out
}

// report prints the figures for people, by the names the workload
// gives them, before the JSON line.
func report(ph *phase, m e2e, setupNote string) {
	fmt.Printf("  %-22s %12.4f s    %s\n", "setup_s", m["setup_s"], setupNote)
	for _, l := range ph.lines {
		fmt.Println("  " + l)
	}
	rate := 0.0
	if ph.attempted > 0 {
		rate = float64(ph.failed) / float64(ph.attempted)
	}
	fmt.Printf("  %-22s %12.4f      %d failed of %d %ss attempted\n", "error_rate", rate, ph.failed, ph.attempted, ph.opName)
	if ph.why != "" {
		fmt.Printf("  last failure: %s\n", ph.why)
	}
	if ph.invalid != "" {
		fmt.Printf("  INVALID: %s\n", ph.invalid)
	}
	fmt.Printf("  %-22s %12.4f MB   heap allocated per operation\n", "op_alloc_mb", m["op_alloc_mb"])
	fmt.Printf("  %-22s %12.1f MB   max of Go runtime memory (total - released) sampled every %v while measuring; p50 %.1f, p99 %.1f, n=%d\n",
		"peak_mem_mb", ph.mem.Max, memSampleEvery, ph.mem.P50, ph.mem.P99, ph.mem.N)
	fmt.Printf("  %-22s %12.1f MB   process lifetime peak, set-up included\n", "peak_rss_mb", peakRSSMB())
}

// runTraced measures untraced for half the time, then sets up again
// with spans on and measures the other half: per-layer figures come
// from the traced half and the counters, the overhead is the
// difference of the two halves' end-to-end figures.
func runTraced(b *bench, newWorkload func() workload, d time.Duration, name string) (*result, error) {
	half := d / 2
	w := newWorkload()
	ref, setupU, err := setUp(b, w, nil)
	if err != nil {
		return nil, err
	}
	plain, err := measure(b, w, half)
	w.tearDown()
	if err != nil {
		return nil, err
	}
	untraced := endToEndOf(setupU, plain)

	b.rec = newRecorder()
	w = newWorkload()
	_, setupT, err := setUp(b, w, ref)
	if err != nil {
		return nil, err
	}
	tr, err := measure(b, w, half)
	w.tearDown()
	if err != nil {
		return nil, err
	}
	traced := endToEndOf(setupT, tr)
	spans := b.rec.snapshot()
	b.rec = nil

	layer := map[string]float64{}
	for k, v := range tr.layer {
		layer[k] = v
	}
	for k, v := range plain.layer {
		layer[k] = v // untraced counters win where both measured
	}
	ops := make(map[int64]bool, len(tr.traces))
	for _, t := range tr.traces {
		ops[t] = true
	}
	self := selfTimes(spans, ops)
	var total float64
	for _, ns := range self {
		total += ns
	}
	for l, ns := range self {
		layer["self."+l+"_ms"] = ns / 1e6 / float64(max(len(ops), 1))
		layer["self."+l+"_share"] = ns / total
	}
	for id, r := range ref.byID {
		layer["experiments."+id+".run_ms"] = msOf(r.Duration)
	}
	for _, e := range endToEnd {
		layer["overhead."+e.name] = traced[e.name] - untraced[e.name]
	}
	for k, v := range probeLayers(ref, b.work) {
		layer[k] = v
	}

	spanDir := filepath.Join(filepath.Dir(b.work), "spans")
	spanFile := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, b.seed))
	if err := writeSpans(spanDir, spanFile, spans); err != nil {
		return nil, err
	}

	fmt.Printf("untraced half:\n")
	report(plain, untraced, "one set-up")
	fmt.Printf("traced half (%d spans written to %s):\n", len(spans), spanFile)
	report(tr, traced, "one set-up")
	fmt.Printf("per-layer:\n")
	out := resultOf(plain, tr)
	for _, p := range perLayer {
		v := layer[p.name]
		fmt.Printf("  %-32s %14.4f %s\n", p.name, v, p.unit)
		out.Metrics[p.name] = metric{v, p.unit}
	}
	for _, p := range reportOnly {
		fmt.Printf("  %-32s %14.4f %s  (report only)\n", p.name, layer[p.name], p.unit)
	}
	return out, nil
}

// heapAllocMB returns the heap bytes allocated by the process so far,
// in MB.
func heapAllocMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's lifetime peak resident set in MB,
// set-up included (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSampleEvery is how often sampleMem reads the runtime's memory
// statistics.
const memSampleEvery = 5 * time.Millisecond

// sampleMem samples the memory the Go runtime holds from the OS
// (mapped minus released to the OS, a close proxy for the resident
// set that needs no access outside the process) until the returned
// function is called, which returns the samples in MB.
func sampleMem() (stop func() []float64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	read := func() float64 {
		metrics.Read(samples)
		return float64(samples[0].Value.Uint64()-samples[1].Value.Uint64()) / (1 << 20)
	}
	mb := []float64{read()}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				mb = append(mb, read())
			}
		}
	}()
	return func() []float64 {
		close(done)
		<-exited
		return append(mb, read())
	}
}

// seconds renders millisecond samples as seconds, for a report line.
func seconds(ms []float64) string {
	var b strings.Builder
	for i, v := range ms {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", v/1e3)
	}
	return b.String()
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
