package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// sweepWorkload runs cold default sweeps through the in-process engine:
// no cache, the engine's default Jobs, the id order permuted by the
// seed. It is what a `figures` user waits for; the paper core does
// nearly all the work.
type sweepWorkload struct {
	ref *reference
}

func (s *sweepWorkload) setUp(_ *bench, ref *reference) error {
	s.ref = ref
	return nil
}

func (s *sweepWorkload) tearDown() {}

func (s *sweepWorkload) measure(b *bench, d time.Duration) (*phase, error) {
	rng := rand.New(rand.NewSource(b.seed))
	jobs := runtime.GOMAXPROCS(0)
	ph := &phase{opName: "experiment result", layer: map[string]float64{}}
	var cpuMs, allocMB, util []float64
	deadline := time.Now().Add(d)
	for len(ph.opMs) == 0 || time.Now().Before(deadline) {
		ids := permute(rng, s.ref.ids)
		trace := b.newTrace()
		ph.traces = append(ph.traces, trace)
		rootID, endRoot := b.rec.begin(trace, 0, "client", "sweep")
		runID, endRun := b.rec.begin(trace, rootID, "experiments", "experiments.Run")
		opts := experiments.Options{IDs: ids, Timeout: opTimeout}
		if b.rec != nil {
			opts.Registry = tracedRegistry(b.rec, trace, runID)
		}
		alloc0, cpu0, start := heapAllocMB(), cpuTime(), time.Now()
		results, err := experiments.Run(context.Background(), opts)
		wall, cpu, alloc := time.Since(start), cpuTime()-cpu0, heapAllocMB()-alloc0
		endRun()
		endRoot()
		if err != nil {
			return nil, err
		}
		ph.opMs = append(ph.opMs, msOf(wall))
		cpuMs = append(cpuMs, msOf(cpu))
		allocMB = append(allocMB, alloc)
		ph.attempted += len(ids)
		if n, why := s.ref.check(ids, results); n > 0 {
			ph.fail(n, why)
		}
		var busy time.Duration
		for _, r := range results {
			busy += r.Duration
		}
		util = append(util, float64(busy)/(float64(wall)*float64(min(jobs, len(ids)))))
	}
	ph.cpuMs, ph.allocMB = median(cpuMs), median(allocMB)
	ph.layer["experiments.pool_util"] = median(util)
	sw := summarize(ph.opMs)
	ph.lines = []string{
		fmt.Sprintf("%-22s %12.4f s    median of %d cold sweeps at Jobs=%d; each %s", "sweep_s", sw.P50/1e3, sw.N, jobs, seconds(ph.opMs)),
		fmt.Sprintf("%-22s %12.4f s    median CPU per sweep", "sweep_cpu_s", ph.cpuMs/1e3),
		fmt.Sprintf("%-22s %12.4f      median over sweeps of sum(Duration)/(wall*Jobs)", "pool_util", median(util)),
	}
	return ph, nil
}
