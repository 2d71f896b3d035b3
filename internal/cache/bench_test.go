package cache

import (
	"context"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkCacheColdVsWarm compares one engine run of E12 (the
// midpoint-contraction sweep, the most expensive of the quick
// experiments) executed fresh against the same run served entirely
// from the store: the warm/cold gap is the value of the cache, the
// warm absolute time is the serving layer's floor per experiment.
func BenchmarkCacheColdVsWarm(b *testing.B) {
	const id = "E12"
	opts := func(s *Store) experiments.Options {
		return experiments.Options{IDs: []string{id}, Jobs: 1, Cache: s}
	}
	check := func(b *testing.B, results []experiments.Result, err error, wantCached bool) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.FirstError(results); err != nil {
			b.Fatal(err)
		}
		if results[0].Cached != wantCached {
			b.Fatalf("Cached = %v, want %v", results[0].Cached, wantCached)
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			results, err := experiments.Run(context.Background(), opts(s))
			check(b, results, err, false)
		}
	})

	b.Run("warm", func(b *testing.B) {
		s, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Prime the store, then measure pure hits.
		results, err := experiments.Run(context.Background(), opts(s))
		check(b, results, err, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, err := experiments.Run(context.Background(), opts(s))
			check(b, results, err, true)
		}
	})
}
