package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/sched"
)

// Options configures an engine run.
type Options struct {
	// IDs lists the experiments to run, in the order their results are
	// returned. Empty means every registered experiment in index order.
	IDs []string
	// Jobs is the number of experiments run concurrently; <= 0 means
	// GOMAXPROCS.
	Jobs int
	// Timeout bounds each experiment's wall-clock time; 0 means no limit.
	Timeout time.Duration
	// Registry overrides the experiment registry; nil means Registry().
	Registry map[string]Runner
	// Cache, when non-nil, is consulted before each runner executes and
	// updated after each success. A hit skips the runner entirely and
	// yields the stored Result with Cached set; failed results are never
	// stored, so errors are always recomputed. Cache write errors are
	// ignored: caching is an optimisation, never a reason to fail a run.
	Cache Cache
}

// Cache is the engine's view of a result store, keyed by experiment id.
// Implementations (internal/cache.Store) own the full cache key —
// registry, Go, and module versions — so a stale store simply misses.
type Cache interface {
	// Get returns the stored result for an experiment id. ok reports a
	// usable hit; implementations must return ok == false (never a
	// stale or corrupted result) when the entry cannot be trusted.
	Get(id string) (Result, bool)
	// Put stores a successful result. Implementations may refuse
	// (e.g. failed results); the engine ignores the error.
	Put(id string, r Result) error
}

// Result is the outcome of one experiment run by the engine.
type Result struct {
	// ID is the experiment id.
	ID string
	// Table is the experiment's output; nil when Err is non-nil.
	Table *Table
	// Err reports a failed, timed-out, panicked, or cancelled run.
	Err error
	// Panicked reports that Err came from a recovered runner panic.
	Panicked bool
	// Cached reports that the result came from Options.Cache and no
	// runner executed. Like Duration it is not part of the wire form,
	// so cached and fresh runs encode byte-identically.
	Cached bool
	// Memo carries the counters of the memoized exploration a fresh run
	// performed (E2, E4, E15, E16); it is zero on a cache hit and for
	// experiments that explore no schedule tree. Like Cached it is not
	// part of the wire form.
	Memo sched.Stats
	// Duration is the experiment's wall-clock time.
	Duration time.Duration
}

// FirstError returns the first failed result's error in result order.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.ID, r.Err)
		}
	}
	return nil
}

// Run executes the selected experiments on a bounded worker pool and
// returns one Result per requested id, in request order regardless of
// completion order. A runner that returns an error, panics, or exceeds
// opts.Timeout yields a failed Result without affecting the other
// experiments or the process. Run itself errors only on configuration
// mistakes (an unknown experiment id); cancelling ctx marks the
// experiments not yet finished as failed with the context's error.
func Run(ctx context.Context, opts Options) ([]Result, error) {
	reg := opts.Registry
	if reg == nil {
		reg = Registry()
	}
	ids := opts.IDs
	if len(ids) == 0 {
		ids = sortIDs(reg)
	}
	runners := make([]Runner, len(ids))
	for i, id := range ids {
		r, ok := reg[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		runners[i] = r
	}

	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(ids) {
		jobs = len(ids)
	}

	results := make([]Result, len(ids))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runCached(ctx, ids[i], "", runners[i], opts)
			}
		}()
	}
	for i := range ids {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, nil
}

// RunPoint executes one request — experiment id at point ps — with
// the engine's execution contract: cache read-through, panic isolation,
// timeout. At the default point (the zero or a defaulted ParamSet) it
// runs the fixed experiment, opts.Registry[id] (or Registry()[id]);
// at any other point it runs ps's family. Only Registry, Timeout and
// Cache of opts are consulted. Like Run, it errors only on
// configuration mistakes: an unknown id, or a ParamSet parsed against
// another experiment's family.
func RunPoint(ctx context.Context, id string, ps ParamSet, opts Options) (Result, error) {
	if err := CheckPoint(id, ps); err != nil {
		return Result{}, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = Registry()
	}
	r, ok := reg[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	if ps.Canonical() != "" {
		r = func() (*Table, error) { return ps.fam.Run(ps) }
	}
	return runCached(ctx, id, ps.Canonical(), r, opts), nil
}

// runCached serves one point of an experiment ("" = the fixed point)
// from opts.Cache when possible and runs it (storing a success back)
// otherwise — the one cache read-through Run and RunPoint share.
func runCached(ctx context.Context, id, params string, r Runner, opts Options) Result {
	if res, ok := CacheGet(opts.Cache, id, params); ok && res.Err == nil && res.Table != nil {
		res.ID = id
		res.Cached = true
		res.Memo = sched.Stats{} // a hit explores nothing
		return res
	}
	res := runOne(ctx, id, r, opts.Timeout)
	if res.Err == nil {
		CachePut(opts.Cache, id, params, res) // best-effort; a failed write just means a future miss
	}
	return res
}

// runOne executes a single runner with panic isolation and a timeout.
// The runner executes in its own goroutine; on timeout or cancellation
// that goroutine is abandoned (runners take no context), which leaks it
// until it returns — acceptable for a CLI/test harness, and the reason
// timeouts should be generous rather than tight.
func runOne(ctx context.Context, id string, r Runner, timeout time.Duration) Result {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{ID: id, Err: err}
	}
	type outcome struct {
		tab      *Table
		err      error
		panicked bool
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				ch <- outcome{err: fmt.Errorf("runner panicked: %v", rec), panicked: true}
			}
		}()
		tab, err := r()
		if err == nil && tab == nil {
			err = fmt.Errorf("runner returned no table")
		}
		ch <- outcome{tab: tab, err: err}
	}()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case o := <-ch:
		res := Result{ID: id, Err: o.err, Panicked: o.panicked, Duration: time.Since(start)}
		if o.err == nil {
			res.Table, res.Memo = o.tab, o.tab.memo
		}
		return res
	case <-timer:
		return Result{ID: id, Err: fmt.Errorf("timed out after %v: %w", timeout, context.DeadlineExceeded),
			Duration: time.Since(start)}
	case <-ctx.Done():
		return Result{ID: id, Err: ctx.Err(), Duration: time.Since(start)}
	}
}
