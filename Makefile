# Makefile — the commands CI runs are exactly the commands humans run.
GO ?= go

.PHONY: build test test-short bench bench-json bench-perf lint figures cover fuzz-smoke load-smoke explore-gate cache-surgery

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-short is the CI gate: skips the exhaustive explorations
# (internal/task, internal/impossibility, internal/snapshot) and runs
# everything else under the race detector.
test-short:
	$(GO) test -short -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-json emits the same sweep as test2json events (one JSON object
# per line), the machine-readable form tooling can track over time.
bench-json:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -json ./...

lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

# cover reports internal/sched + internal/shard + internal/cache +
# internal/hist + internal/trace coverage — the packages the
# exploration core, the fleet coordinator, the result cache, and the
# latency/tracing observability layer live in. CI enforces a floor on
# the combined total.
cover:
	$(GO) test -short -cover -coverprofile=cover.out ./internal/sched ./internal/shard ./internal/cache ./internal/hist ./internal/trace
	$(GO) tool cover -func=cover.out | tail -1

# load-smoke boots a two-worker figuresd fleet and drives a short
# mixed whole/param load through `figures load`, writing
# BENCH_load.json and asserting zero errors and per-endpoint
# p50/p95/p99 on /stats — the latency-trajectory gate CI runs on
# every push.
load-smoke:
	./scripts/load-smoke.sh

# cache-surgery proves per-family cache identity on a live fleet: warm
# a two-worker fleet plus front cache over E1,E2,E7,E15, swap in
# binaries built with an E2-only space-version bump (ldflags), and the
# same run must re-execute E2 alone — 3/4 front-cache hits, the other
# families never reaching the fleet, bytes identical throughout.
cache-surgery:
	./scripts/cache-surgery.sh

# explore-gate proves the memoized explorer — the only path E2, E4,
# E15 and E16 take — equivalent to the exhaustive oracle on the real
# experiments: a Go test renders the four through both and compares
# the text/json/csv bytes, then the `figures -v` counter lines are
# pinned exactly (executions, replays, states visited, states pruned)
# to the committed BENCH_explore.json baseline, which the gate
# rewrites with fresh counters and the oracle-vs-memo ns/op.
explore-gate:
	./scripts/explore-gate.sh

# bench-perf runs the repository benchmark (perfbench/run.py) once on
# the sweep, serve and fleet workloads at seed 1, 15 s each, and appends
# the sample, with the host's core count and the Go version, to
# BENCH_perf.json under the short HEAD commit, recomputing that label's
# quartiles. It fails unless every workload reports correct == true and
# failed == 0; times are recorded, not gated. ~2 minutes. To sample
# another commit's checkout alongside, run
# scripts/bench-perf.sh LABEL CHECKOUT directly.
bench-perf:
	./scripts/bench-perf.sh

# fuzz-smoke runs each fuzz target briefly: arbitrary bytes must never
# panic the results decoder, the cache read path, the canonical-state
# fingerprint, or the family parameter parser.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeJSON$$' -fuzztime=10s ./internal/experiments
	$(GO) test -run='^$$' -fuzz='^FuzzCacheGet$$' -fuzztime=10s ./internal/cache
	$(GO) test -run='^$$' -fuzz='^FuzzCanonicalState$$' -fuzztime=10s ./internal/memory
	$(GO) test -run='^$$' -fuzz='^FuzzParseParams$$' -fuzztime=10s ./internal/experiments

figures:
	$(GO) run ./cmd/figures
