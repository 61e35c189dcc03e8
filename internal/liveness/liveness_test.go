package liveness

import (
	"errors"
	"testing"

	"repro/internal/mdp"
	"repro/internal/prob"
)

// mustNew builds a hand-written test MDP through mdp.New.
func mustNew(choices [][]mdp.Choice) *mdp.MDP {
	m, err := mdp.New(choices)
	if err != nil {
		panic(err)
	}
	return m
}

func mask(n int, targets ...int) []bool {
	out := make([]bool, n)
	for _, t := range targets {
		out[t] = true
	}
	return out
}

// geometricMDP: state 0 flips into target 1 or stays; state 2 is an
// adversary-controllable escape to a sink 3.
func geometricMDP() *mdp.MDP {
	flip := mdp.Choice{Label: "flip", Tick: true, Branches: []mdp.Tr{
		{To: 1, P: prob.Half()},
		{To: 0, P: prob.Half()},
	}}
	return mustNew([][]mdp.Choice{
		{flip},
		nil,
		{
			{Label: "good", Branches: []mdp.Tr{{To: 1, P: prob.One()}}},
			{Label: "bad", Branches: []mdp.Tr{{To: 3, P: prob.One()}}},
		},
		{{Label: "stay", Branches: []mdp.Tr{{To: 3, P: prob.One()}}}},
	})
}

func TestAlmostSure(t *testing.T) {
	m := geometricMDP()
	target := mask(4, 1)

	rep, err := AlmostSure(m, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Error("property holds despite the escape at state 2")
	}
	if rep.Considered != 4 {
		t.Errorf("Considered = %d, want 4", rep.Considered)
	}
	if len(rep.Failing) == 0 || len(rep.WitnessAvoid) == 0 {
		t.Errorf("no witnesses reported: %+v", rep)
	}

	// Restricted to state 0, the property holds.
	rep0, err := AlmostSure(m, target, mask(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep0.Holds || rep0.Considered != 1 {
		t.Errorf("restricted report = %+v", rep0)
	}
}

func TestAlmostSureShapeErrors(t *testing.T) {
	m := geometricMDP()
	if _, err := AlmostSure(m, mask(2, 1), nil); err == nil {
		t.Error("short target mask accepted")
	}
	if _, err := AlmostSure(m, mask(4, 1), mask(2, 0)); err == nil {
		t.Error("short from mask accepted")
	}
}

func TestVerifyRank(t *testing.T) {
	// Two-state geometric fragment only (no escape).
	m := mustNew([][]mdp.Choice{
		{{Label: "flip", Branches: []mdp.Tr{{To: 1, P: prob.Half()}, {To: 0, P: prob.Half()}}}},
		nil,
	})
	target := mask(2, 1)
	if err := VerifyRank(m, target, []int{1, 0}); err != nil {
		t.Errorf("valid certificate rejected: %v", err)
	}

	tests := []struct {
		name string
		rank []int
		want error
	}{
		{name: "wrong shape", rank: []int{1}, want: ErrRankShape},
		{name: "negative", rank: []int{-1, 0}, want: ErrRankNegative},
		{name: "target nonzero", rank: []int{2, 1}, want: ErrRankAtTarget},
		{name: "non-target zero", rank: []int{0, 0}, want: ErrRankZero},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := VerifyRank(m, target, tt.rank); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestVerifyRankStuckChoice(t *testing.T) {
	// State 0's "spin" choice never decreases rank.
	m := mustNew([][]mdp.Choice{
		{
			{Label: "go", Branches: []mdp.Tr{{To: 1, P: prob.One()}}},
			{Label: "spin", Branches: []mdp.Tr{{To: 0, P: prob.One()}}},
		},
		nil,
	})
	if err := VerifyRank(m, mask(2, 1), []int{1, 0}); !errors.Is(err, ErrRankStuck) {
		t.Errorf("err = %v, want ErrRankStuck", err)
	}
}

func TestVerifyRankTerminal(t *testing.T) {
	m := mustNew([][]mdp.Choice{
		nil, // non-target terminal
		nil,
	})
	if err := VerifyRank(m, mask(2, 1), []int{1, 0}); !errors.Is(err, ErrRankTerminal) {
		t.Errorf("err = %v, want ErrRankTerminal", err)
	}
}

func TestSynthesizeRank(t *testing.T) {
	t.Run("succeeds on almost-sure system", func(t *testing.T) {
		// 0 flips toward 1; 2 cycles through 0.
		m := mustNew([][]mdp.Choice{
			{{Label: "flip", Branches: []mdp.Tr{{To: 1, P: prob.Half()}, {To: 2, P: prob.Half()}}}},
			nil,
			{{Label: "back", Branches: []mdp.Tr{{To: 0, P: prob.One()}}}},
		})
		target := mask(3, 1)
		rank, ok := SynthesizeRank(m, target)
		if !ok {
			t.Fatal("synthesis failed on an almost-sure system")
		}
		if err := VerifyRank(m, target, rank); err != nil {
			t.Errorf("synthesized rank fails verification: %v", err)
		}
	})
	t.Run("fails when escape exists", func(t *testing.T) {
		m := geometricMDP()
		if _, ok := SynthesizeRank(m, mask(4, 1)); ok {
			t.Error("synthesis succeeded despite the escape")
		}
	})
}

// TestSynthesisAgreesWithAlmostSure cross-validates the two analyses on a
// family of pseudo-random MDPs: when synthesis succeeds, the property
// holds everywhere.
func TestSynthesisAgreesWithAlmostSure(t *testing.T) {
	for seed := uint32(1); seed <= 300; seed++ {
		s := seed
		next := func(n int) int { s = s*1664525 + 1013904223; return int(s>>16) % n }
		const n = 5
		choices := make([][]mdp.Choice, n)
		for st := 0; st < n-1; st++ {
			for c := 0; c <= next(2); c++ {
				a, b := next(n), next(n)
				var branches []mdp.Tr
				if a == b {
					branches = []mdp.Tr{{To: a, P: prob.One()}}
				} else {
					branches = []mdp.Tr{{To: a, P: prob.Half()}, {To: b, P: prob.Half()}}
				}
				choices[st] = append(choices[st], mdp.Choice{Label: "c", Branches: branches})
			}
		}
		m := mustNew(choices)
		target := mask(n, n-1)
		rank, ok := SynthesizeRank(m, target)
		rep, err := AlmostSure(m, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if err := VerifyRank(m, target, rank); err != nil {
				t.Fatalf("seed %d: synthesized rank invalid: %v", seed, err)
			}
			if !rep.Holds {
				t.Fatalf("seed %d: certificate exists but property fails (unsound!)", seed)
			}
		}
	}
}
