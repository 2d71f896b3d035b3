package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/experiments"
)

// reference is the correctness oracle: one serial (Jobs = 1) local run
// of the default sweep, made during set-up from the same source tree
// as the system under test.
type reference struct {
	ids  []string
	byID map[string]experiments.Result
	// json is the default-order JSON encoding; two references must
	// agree on it byte for byte.
	json []byte
}

var formats = []string{"text", "json", "csv"}

// buildReference runs the default sweep serially. Every experiment must
// succeed: a failing reference leaves nothing to check against.
func buildReference(b *bench) (*reference, error) {
	rootID, endRoot := b.rec.begin(setupTrace, 0, "client", "reference")
	defer endRoot()
	runID, endRun := b.rec.begin(setupTrace, rootID, "experiments", "experiments.Run")
	opts := experiments.Options{Jobs: 1, Timeout: opTimeout}
	if b.rec != nil {
		opts.Registry = tracedRegistry(b.rec, setupTrace, runID)
	}
	results, err := experiments.Run(context.Background(), opts)
	endRun()
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	if err := experiments.FirstError(results); err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	ref := &reference{byID: make(map[string]experiments.Result, len(results))}
	for _, r := range results {
		ref.ids = append(ref.ids, r.ID)
		ref.byID[r.ID] = r
	}
	if ref.json, err = ref.encode("json", ref.ids); err != nil {
		return nil, err
	}
	return ref, nil
}

// tracedRegistry wraps every runner of the default registry in a span
// on the core layer, parented under the engine call that runs it.
func tracedRegistry(rec *recorder, trace, parent int64) map[string]experiments.Runner {
	reg := experiments.Registry()
	for id, run := range reg {
		reg[id] = func() (*experiments.Table, error) {
			_, end := rec.begin(trace, parent, "core", id)
			defer end()
			return run()
		}
	}
	return reg
}

// encode renders the reference results for ids, in that order.
func (r *reference) encode(format string, ids []string) ([]byte, error) {
	results := make([]experiments.Result, len(ids))
	for i, id := range ids {
		results[i] = r.byID[id]
	}
	return encodeResults(format, results)
}

func encodeResults(format string, results []experiments.Result) ([]byte, error) {
	encode, err := experiments.LookupEncoder(format)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := encode(&buf, results); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", format, err)
	}
	return buf.Bytes(), nil
}

// check compares a sweep's results for ids against the reference. The
// whole output must be byte-identical in every format; failed counts
// the results that are wrong (an error, a wrong id in a slot, or a table
// whose encoding differs), and at least one when only the whole output
// differs.
func (r *reference) check(ids []string, results []experiments.Result) (failed int, why string) {
	if len(results) != len(ids) {
		return len(ids), fmt.Sprintf("%d results for %d ids", len(results), len(ids))
	}
	for i, res := range results {
		switch {
		case res.Err != nil:
			failed++
			why = fmt.Sprintf("%s: %v", ids[i], res.Err)
		case res.ID != ids[i]:
			failed++
			why = fmt.Sprintf("slot %d holds %s, want %s", i, res.ID, ids[i])
		default:
			got, err1 := encodeResults("json", results[i:i+1])
			want, err2 := r.encode("json", ids[i:i+1])
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				failed++
				why = fmt.Sprintf("%s: table differs from the reference", ids[i])
			}
		}
	}
	for _, f := range formats {
		got, err1 := encodeResults(f, results)
		want, err2 := r.encode(f, ids)
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			if failed == 0 {
				failed, why = 1, f+" output differs from the reference"
			}
		}
	}
	return failed, why
}

// permute returns ids in a seeded random order.
func permute(rng *rand.Rand, ids []string) []string {
	out := slices.Clone(ids)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
