// Impossibility walkthrough: the constructive core of Theorem 1.1. With
// 1-bit registers, the execution graph of the 2-process ε-agreement
// protocol connects the two solo decisions by a path (else consensus
// would be solvable), yet all executions collapse onto at most four
// distinguishable register contents — so as ε shrinks, a late third
// process is forced arbitrarily far from some already-decided output.
package main

import (
	"fmt"
	"log"

	"repro/internal/consensus"
	"repro/internal/impossibility"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Step 1: the execution graph is connected (Lemma 2.1's shadow).
	k := 3
	a, err := impossibility.Analyze(k)
	if err != nil {
		return err
	}
	g := a.Graph()
	path := g.Path()
	fmt.Printf("execution graph of Algorithm 1 (k=%d, inputs 0,1): %d executions\n", k, g.Executions)
	fmt.Printf("solo-to-solo path (%d edges):", len(path)-1)
	for _, v := range path {
		fmt.Printf(" p%d:%d/%d", v.Pid, v.Num, g.Den)
	}
	fmt.Println()

	// Step 2: the pigeonhole. All executions leave one of ≤ 4 register
	// states; within one state, outputs far apart coexist.
	for _, kk := range []int{2, 4, 6} {
		a, err := impossibility.Analyze(kk)
		if err != nil {
			return err
		}
		c, err := a.WorstCollision()
		if err != nil {
			return err
		}
		fmt.Printf("k=%d (ε=1/%d): memory %v carries %d output pairs, gap %d·ε\n",
			kk, 2*kk+1, c.Mem, len(c.Pairs), c.Gap())
	}

	// Step 3: the counting table of Proposition 4.1.
	rows, err := impossibility.CountingTable(3, 2, 4)
	if err != nil {
		return err
	}
	fmt.Println("\nProp 4.1 thresholds (n=3, t=2): with s-bit registers, ε < 1/k is unreachable:")
	for _, r := range rows {
		fmt.Printf("  s=%d bits → %4d memory states → k = %d\n", r.Bits, r.States, r.KThreshold)
	}

	// Step 4: and the reason the graph must be connected — rounding
	// ε-agreement to solve consensus fails on a concrete schedule.
	v, err := consensus.FindRoundingViolation(2)
	if err != nil {
		return err
	}
	fmt.Printf("\nconsensus via rounding refuted: schedule %v gives decisions %v (%s)\n",
		v.Schedule, v.Outs, v.Reason)
	return nil
}
