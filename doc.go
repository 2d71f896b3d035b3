// Package repro reproduces "The Computational Power of Distributed
// Shared-Memory Models with Bounded-Size Registers" (Delporte,
// Fauconnier, Fraigniaud, Rajsbaum, Travers; PODC 2024,
// arXiv:2309.13977) as an executable Go library.
//
// The model, every algorithm of the paper (Algorithms 1-6), every
// substrate they depend on, and one experiment per figure/theorem live
// under internal/; see DESIGN.md for the package inventory, the
// E1..E16 experiment index, and the concurrent experiment engine that
// cmd/figures drives. The benchmarks in bench_test.go regenerate each
// experiment's series; BenchmarkSweep compares the serial and
// concurrent engine on the full E1..E16 sweep.
package repro
