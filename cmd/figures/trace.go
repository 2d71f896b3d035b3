package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/shard"
	"repro/internal/trace"
)

// sourcedTrace is one journal's view of a request, tagged with the
// process it was fetched from ("" for the local coordinator journal).
// A sharded request leaves one span in the coordinator's journal and
// one in each worker that served a piece of it; the renderer merges
// them into a single timeline keyed by the shared request ID.
type sourcedTrace struct {
	source string
	tr     trace.Trace
}

// runTrace is the `figures trace` subcommand: fetch one request's
// span from every listed process's /trace/{id} endpoint and render
// the merged timeline — the after-the-fact explanation of where a
// sharded request's time went and which decisions shaped it.
func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "", "comma-separated figuresd targets (host:port) to fetch the trace from")
		timeout = fs.Duration("timeout", 10*time.Second, "per-target fetch limit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *addr == "" {
		return fmt.Errorf("trace: -addr is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace: exactly one request id expected, got %d args", fs.NArg())
	}
	id := fs.Arg(0)
	client := &http.Client{Timeout: *timeout}
	var traces []sourcedTrace
	for _, target := range shard.SplitList(*addr) {
		base := traceBaseURL(target)
		tr, err := fetchTrace(client, base, id)
		if err != nil {
			// A journal that aged the ID out (or a dead worker) thins
			// the timeline; it does not invalidate the other journals.
			fmt.Fprintf(stderr, "figures: trace: %s: %v\n", base, err)
			continue
		}
		traces = append(traces, sourcedTrace{source: base, tr: tr})
	}
	if len(traces) == 0 {
		return fmt.Errorf("trace %s not found on any target", id)
	}
	renderTimeline(stdout, traces)
	return nil
}

// traceBaseURL normalizes a target address to a scheme-full base URL
// (the same form the shard coordinator and load harness use).
func traceBaseURL(addr string) string {
	addr = strings.TrimRight(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// fetchTrace retrieves one process's span for id.
func fetchTrace(client *http.Client, base, id string) (trace.Trace, error) {
	var tr trace.Trace
	resp, err := client.Get(base + "/trace/" + url.PathEscape(id))
	if err != nil {
		return tr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return tr, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return tr, err
	}
	return tr, nil
}

// sourcedEvent is one event of the merged timeline.
type sourcedEvent struct {
	trace.Event
	source string
}

// renderTimeline prints one request's merged span: the header, then
// every event in timestamp order with its offset from the first and
// the worker (or source journal) it concerns. Events from different
// journals are on different process clocks; on the single-host fleets
// this repo drives, the skew is far below the durations being read.
func renderTimeline(w io.Writer, traces []sourcedTrace) {
	var evs []sourcedEvent
	id, what := traces[0].tr.ID, ""
	dropped := 0
	for _, st := range traces {
		if what == "" {
			what = st.tr.What
		}
		dropped += st.tr.Dropped
		for _, ev := range st.tr.Events {
			evs = append(evs, sourcedEvent{Event: ev, source: st.source})
		}
	}
	if len(evs) == 0 {
		fmt.Fprintf(w, "trace %s — %s: no events recorded\n", id, what)
		return
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
	base, end := evs[0].At, evs[0].At
	for _, ev := range evs {
		if ev.At.After(end) {
			end = ev.At
		}
	}
	total := end.Sub(base)
	fmt.Fprintf(w, "trace %s — %s (%d events from %d journals, %v)\n",
		id, what, len(evs), len(traces), total.Round(time.Microsecond))
	if dropped > 0 {
		fmt.Fprintf(w, "  (%d events dropped at the per-request cap)\n", dropped)
	}

	for _, ev := range evs {
		worker := ev.Worker
		if worker == "" {
			worker = ev.source
		}
		fmt.Fprintf(w, "  +%9.3fms  %-16s %-24s %s\n",
			float64(ev.At.Sub(base))/float64(time.Millisecond), ev.Kind, worker, ev.Detail)
	}
}
