package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/agreement"
	"repro/internal/sched"
)

// FuzzDecodeJSON: arbitrary bytes fed to the results decoder must
// never panic — they either decode or surface an error. When they do
// decode, the re-encode must be a fixed point: EncodeJSON of the
// decoded slice decodes again to the same bytes, the round-trip
// property the cache and the HTTP layers rely on to serve stored
// results byte-identically.
func FuzzDecodeJSON(f *testing.F) {
	// Seed with real wire forms: a success, a failure, an empty slice,
	// and near-miss garbage.
	var seed bytes.Buffer
	if err := EncodeJSON(&seed, []Result{
		{ID: "E1", Table: &Table{ID: "E1", Title: "t", Headers: []string{"h"},
			Rows: [][]string{{"v"}}, Notes: []string{"n"}}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`[{"id":"E2","error":"boom"}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"id":1}]`))
	f.Add([]byte(`{"id":"E1"}`))
	f.Add([]byte(``))
	f.Add([]byte(`[{"id":"E1","rows":[["a",1]]}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected, never panicked: the contract
		}
		var first bytes.Buffer
		if err := EncodeJSON(&first, results); err != nil {
			t.Fatalf("decoded results do not re-encode: %v", err)
		}
		again, err := DecodeJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded bytes do not decode: %v", err)
		}
		var second bytes.Buffer
		if err := EncodeJSON(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode∘decode not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// fuzzAlg1Full memoizes the whole-tree execution count of the small
// Algorithm 1 space the prefixes fuzzer slices into.
var fuzzAlg1Full = struct {
	sync.Once
	execs int
	err   error
}{}

// FuzzPrefixesMemoExplore: arbitrary ?prefixes= strings must never
// panic anywhere down the stack — the parser rejects them, or the
// parsed roots survive a FormatPrefixes round-trip and drive a
// memoized exploration that either rejects dead/overlapping-free
// prefixes (ErrPrefixNotLive and friends) or accounts for a subset of
// the whole tree's executions, never more.
func FuzzPrefixesMemoExplore(f *testing.F) {
	f.Add("-")
	f.Add("0")
	f.Add("1,0.0,0.1")
	f.Add("0.1.0.1")
	f.Add("2")
	f.Add("0..1")
	f.Add("0.1,")
	f.Add("-,-")
	f.Fuzz(func(t *testing.T, s string) {
		roots, err := ParsePrefixes(s)
		if err != nil {
			return // rejected, never panicked: the contract
		}
		back, err := ParsePrefixes(FormatPrefixes(roots))
		if err != nil {
			t.Fatalf("canonical form %q of accepted %q rejected: %v", FormatPrefixes(roots), s, err)
		}
		if !reflect.DeepEqual(back, roots) {
			t.Fatalf("prefixes round-trip changed %v to %v", roots, back)
		}
		if len(roots) > 8 {
			roots = roots[:8] // bound the work, not the parse
		}
		for _, root := range roots {
			if len(root) > 12 {
				return // deeper than the k=1 tree; nothing new to learn
			}
		}

		fuzzAlg1Full.Do(func() {
			_, stats, err := agreement.ExploreAlg1(1, [2]uint64{0, 1}, sched.Options{Memo: true}, nil)
			fuzzAlg1Full.execs, fuzzAlg1Full.err = stats.Executions, err
		})
		if fuzzAlg1Full.err != nil {
			t.Fatalf("whole-tree baseline failed: %v", fuzzAlg1Full.err)
		}

		_, stats, err := agreement.ExploreAlg1(1, [2]uint64{0, 1}, sched.Options{Roots: roots, Memo: true}, nil)
		if err != nil {
			return // dead or unreplayable prefix: rejected, not panicked
		}
		if stats.Executions < 1 || stats.Executions > fuzzAlg1Full.execs {
			t.Fatalf("prefixes %q account for %d executions, whole tree has %d",
				FormatPrefixes(roots), stats.Executions, fuzzAlg1Full.execs)
		}
	})
}
