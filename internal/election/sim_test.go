package election

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestElectionUnderSimulation cross-validates the election model with the
// dense-time Monte Carlo engine at sizes beyond exact enumeration: every
// run elects a leader, within the derived per-level bound Σ 2/p_k.
func TestElectionUnderSimulation(t *testing.T) {
	for _, n := range []int{3, 6, 10} {
		model := MustNew(n)
		a := Analysis{N: n} // only for the bound formula
		bound, err := a.ExpectedTimeBound()
		if err != nil {
			t.Fatal(err)
		}
		boundF := bound.Float64()

		sum, _, err := sim.EstimateTimeToTargetParallel[State](context.Background(), model,
			func() sim.Policy[State] { return sim.Slowest[State]() },
			State.HasLeader, 300, sim.Options[State]{}, sim.ParallelOptions{Workers: 1, Seed: int64(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		mean, err := sum.Mean()
		if err != nil {
			t.Fatal(err)
		}
		maxT, err := sum.Max()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n=%d: mean election time %.3f (max %.3f), derived bound %.3f", n, mean, maxT, boundF)
		if mean > boundF {
			t.Errorf("n=%d: mean %.3f exceeds the derived expected-time bound %.3f", n, mean, boundF)
		}
	}
}

// TestElectionRandomPolicy exercises the random scheduler path (including
// branch randomization) on the election model.
func TestElectionRandomPolicy(t *testing.T) {
	model := MustNew(4)
	rng := rand.New(rand.NewSource(9))
	res, err := sim.RunOnce[State](model, sim.Random[State](0), State.HasLeader,
		sim.Options[State]{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("random policy never elected: %+v", res)
	}
	if !res.Final.HasLeader() {
		t.Errorf("final state %v has no leader", res.Final)
	}
}
