// Second case study: the proof method applied to a different randomized
// algorithm — symmetric leader election by repeated coin flipping —
// answering the paper's call (Section 7) to exercise the technique beyond
// Lehmann–Rabin.
//
// For each level k (k active processes) the round rule gives the arrow
// Fresh_k --2, 1-2^(1-k)--> Elected ∪ Fresh_{<k}; the example checks every
// level exactly against all digitized Unit-Time adversaries, composes the
// levels with Proposition 3.2 + Theorem 3.4, and bounds the expected
// election time with per-level retry loops.
package main

import (
	"fmt"
	"log"

	"repro/internal/election"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("leaderelection: ")

	for _, n := range []int{3, 4, 5} {
		a, err := election.NewAnalysisOpts(n, 1, election.Opts{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("n=%d: %d product states\n", n, a.Index.Len())

		results, err := a.CheckLevels()
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range results {
			fmt.Printf("  %s\n", r)
		}

		proof, err := a.BuildProof()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  composed: %s\n", proof.Stmt)

		bound, err := a.ExpectedTimeBound()
		if err != nil {
			log.Fatal(err)
		}
		worst, err := a.WorstExpectedTime()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  expected election time: bound %v ≈ %.3f, measured worst case %.3f\n\n",
			bound, bound.Float64(), worst)
	}

	// The full derivation tree for n = 4.
	a, err := election.NewAnalysisOpts(4, 1, election.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	proof, err := a.BuildProof()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("derivation at n=4:")
	fmt.Print(proof.Render())
}
