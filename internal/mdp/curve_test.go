package mdp

import (
	"math"
	"testing"

	"repro/internal/prob"
)

func TestReachWithinTicksLayers(t *testing.T) {
	// Geometric coin: layer h must equal 1 - 2^-h at state 0.
	m := mustNew([][]Choice{
		{tickCoin("flip", 1, 0)},
		nil,
	})
	layers, err := m.ReachWithinTicksLayers(mask(2, 1), 5, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 6 {
		t.Fatalf("got %d layers, want 6", len(layers))
	}
	for h, layer := range layers {
		want := prob.One().Sub(prob.NewRat(1, 1<<uint(h)))
		if !layer[0].Equal(want) {
			t.Errorf("layer %d = %v, want %v", h, layer[0], want)
		}
		if !layer[1].IsOne() {
			t.Errorf("target value at layer %d = %v", h, layer[1])
		}
	}
	// Layers must agree with the single-horizon API.
	for h := 0; h <= 5; h++ {
		v, err := m.ReachWithinTicks(mask(2, 1), h, MinProb)
		if err != nil {
			t.Fatal(err)
		}
		if !v[0].Equal(layers[h][0]) {
			t.Errorf("horizon %d: layers %v vs direct %v", h, layers[h][0], v[0])
		}
	}
}

func TestReachWithinTicksFloatAgreesWithExact(t *testing.T) {
	// A small MDP mixing choices, coins and zero-duration moves.
	m := mustNew([][]Choice{
		{tickCoin("flip", 1, 2), tickTo("delay", 0)},
		{moveTo("go", 3)},
		{tickCoin("retry", 3, 0)},
		nil,
	})
	target := mask(4, 3)
	for _, goal := range []Goal{MinProb, MaxProb} {
		for h := 0; h <= 8; h++ {
			exact, err := m.ReachWithinTicks(target, h, goal)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := m.ReachWithinTicksFloat(target, h, goal)
			if err != nil {
				t.Fatal(err)
			}
			for s := range exact {
				if math.Abs(exact[s].Float64()-approx[s]) > 1e-12 {
					t.Errorf("goal %v h=%d s=%d: exact %v vs float %g", goal, h, s, exact[s], approx[s])
				}
			}
		}
	}
}

func TestReachWithinTicksFloatErrors(t *testing.T) {
	m := mustNew([][]Choice{
		{moveTo("spin", 0)},
		nil,
	})
	if _, err := m.ReachWithinTicksFloat(mask(2, 1), 2, MinProb); err == nil {
		t.Error("Zeno cycle accepted")
	}
	ok := mustNew([][]Choice{nil})
	if _, err := ok.ReachWithinTicksFloat(mask(2, 0), 1, MinProb); err == nil {
		t.Error("mismatched mask accepted")
	}
	if _, err := ok.ReachWithinTicksFloat(mask(1), -1, MinProb); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestWorstWitness(t *testing.T) {
	// 0: adversary picks between a coin (reaches target half the time)
	// and a safe delay loop... make delay lead to a dead end so min play
	// is forced through the coin, and the damning branch is the miss.
	m := mustNew([][]Choice{
		{tickCoin("flip", 1, 2)},
		nil, // target
		{tickTo("stuck", 2)},
	})
	target := mask(3, 1)
	steps, err := m.WorstWitness(target, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("empty witness")
	}
	first := steps[0]
	if first.Action != "flip" || first.Next != 2 {
		t.Errorf("witness first step = %+v, want flip into the miss branch", first)
	}
	if !first.BranchProb.Equal(prob.Half()) {
		t.Errorf("branch prob = %v", first.BranchProb)
	}
}

func TestWorstWitnessStopsAtTarget(t *testing.T) {
	m := mustNew([][]Choice{
		{tickTo("go", 1)},
		nil,
	})
	steps, err := m.WorstWitness(mask(2, 1), 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0].Next != 1 {
		t.Errorf("witness = %+v, want single step into target", steps)
	}
	// Starting at the target: empty witness.
	steps, err = m.WorstWitness(mask(2, 1), 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 {
		t.Errorf("witness from target = %+v, want empty", steps)
	}
}

func TestWorstWitnessClockExpiry(t *testing.T) {
	// The minimizing adversary's best move at budget 0 is to tick the
	// clock out; the witness stops there.
	m := mustNew([][]Choice{
		{tickTo("go", 1)},
		nil,
	})
	steps, err := m.WorstWitness(mask(2, 1), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 {
		t.Errorf("witness at horizon 0 = %+v, want empty (clock expiry)", steps)
	}
}

func TestWorstWitnessBadStart(t *testing.T) {
	m := mustNew([][]Choice{nil})
	if _, err := m.WorstWitness(mask(1, 0), 1, 5, 0); err == nil {
		t.Error("out-of-range start accepted")
	}
}
