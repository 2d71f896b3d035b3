package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/load"
	"repro/internal/shard"
)

// runLoad is the `figures load` subcommand: the load harness
// (internal/load) behind flags. It drives a figuresd fleet with a
// mixed whole/param workload at a target QPS, prints a human summary
// to stderr, and writes the machine-readable summary (the
// BENCH_load.json trajectory CI uploads) to -o or stdout.
func runLoad(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "", "comma-separated figuresd targets (host:port) to drive; requests round-robin across them")
		qps         = fs.Float64("qps", 50, "target request arrival rate across all targets")
		duration    = fs.Duration("duration", 10*time.Second, "how long to generate load")
		warmup      = fs.Duration("warmup", 0, "run the same mix unmeasured first (warms caches; 0 = measure cold)")
		mixFlag     = fs.String("mix", "whole:1", "traffic mix as kind:weight pairs, e.g. whole:3,param:1")
		exps        = fs.String("experiments", "", "comma-separated experiment ids to spread requests over, optionally weighted (E1:3); default: every registered experiment")
		paramPoints = fs.String("param-points", "", "comma-separated parameter points param-kind requests cycle through, as family:name=value pairs joined with + (e.g. E2:k=3+i0=0); default: each listed family's defaults spelled out")
		concurrency = fs.Int("concurrency", 0, "max in-flight requests (0 = 4×GOMAXPROCS)")
		format      = fs.String("format", "json", "whole-experiment fetch format: text, json, or csv")
		reqTimeout  = fs.Duration("request-timeout", load.DefaultRequestTimeout, "per-request limit; slower responses count as errors")
		outFile     = fs.String("o", "", "write the JSON summary to this file instead of stdout")
		verbose     = fs.Bool("v", false, "report per-request failures on stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *addr == "" {
		return fmt.Errorf("load: -addr is required")
	}
	mix, err := load.ParseMix(*mixFlag)
	if err != nil {
		return err
	}
	ids := shard.SplitList(*exps)
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	// The flag separates points with commas and name=value pairs within
	// a point with "+" (commas are taken); the harness's entry form uses
	// commas within a point, so translate here.
	var points []string
	for _, entry := range shard.SplitList(*paramPoints) {
		points = append(points, strings.ReplaceAll(entry, "+", ","))
	}

	// Create the -o file before generating any load: an unwritable
	// path must fail in milliseconds, not after the whole run.
	out := io.Writer(stdout)
	var f *os.File
	if *outFile != "" {
		f, err = os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	var logf func(format string, args ...any)
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	// SIGINT ends the run early with a partial summary instead of
	// killing the process mid-measurement.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sum, err := load.Run(ctx, load.Options{
		Targets:        shard.SplitList(*addr),
		QPS:            *qps,
		Duration:       *duration,
		Warmup:         *warmup,
		Concurrency:    *concurrency,
		RequestTimeout: *reqTimeout,
		Mix:            mix,
		Experiments:    ids,
		ParamPoints:    points,
		Format:         *format,
		Logf:           logf,
	})
	if err != nil {
		return err
	}

	note := ""
	if sum.Cancelled {
		note = " (cancelled early)"
	}
	fmt.Fprintf(stderr, "load: %d requests in %.1fs%s — %.1f qps achieved (target %.1f), %d errors\n",
		sum.Requests, sum.ElapsedSeconds, note, sum.AchievedQPS, sum.TargetQPS, sum.Errors)
	kinds := make([]string, 0, len(sum.Kinds))
	for kind := range sum.Kinds {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		k := sum.Kinds[kind]
		fmt.Fprintf(stderr, "load: %-5s %6d requests  p50 %8.2fms  p95 %8.2fms  p99 %8.2fms  max %8.2fms\n",
			kind, k.Requests, k.Latency.P50Millis, k.Latency.P95Millis, k.Latency.P99Millis, k.Latency.MaxMillis)
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		return err
	}
	if f != nil {
		return f.Close()
	}
	return nil
}
