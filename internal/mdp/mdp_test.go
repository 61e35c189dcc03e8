package mdp

import (
	"errors"
	"math"
	"testing"

	"repro/internal/pa"
	"repro/internal/prob"
)

// mask builds a target mask for an MDP of n states.
func mask(n int, targets ...int) []bool {
	out := make([]bool, n)
	for _, t := range targets {
		out[t] = true
	}
	return out
}

// tickTo builds a deterministic tick choice.
func tickTo(label string, to int) Choice {
	return Choice{Label: label, Tick: true, Branches: []Tr{{To: to, P: prob.One()}}}
}

// moveTo builds a deterministic zero-duration choice.
func moveTo(label string, to int) Choice {
	return Choice{Label: label, Branches: []Tr{{To: to, P: prob.One()}}}
}

// tickCoin builds a tick choice flipping fairly between two successors.
func tickCoin(label string, a, b int) Choice {
	return Choice{Label: label, Tick: true, Branches: []Tr{
		{To: a, P: prob.Half()},
		{To: b, P: prob.Half()},
	}}
}

// mustNew builds a hand-written test MDP through New.
func mustNew(choices [][]Choice) *MDP {
	m, err := New(choices)
	if err != nil {
		panic(err)
	}
	return m
}

// TestValidate pins the structural rules New enforces, plus the NumStates
// check Validate keeps for an MDP whose count was changed after New.
func TestValidate(t *testing.T) {
	tests := []struct {
		name      string
		choices   [][]Choice
		numStates int // nonzero: overwrite NumStates before Validate
		wantErr   bool
	}{
		{
			name: "valid",
			choices: [][]Choice{
				{tickCoin("flip", 0, 1)},
				nil,
			},
		},
		{
			name:      "shape mismatch",
			choices:   make([][]Choice, 2),
			numStates: 3,
			wantErr:   true,
		},
		{
			name: "target out of range",
			choices: [][]Choice{
				{moveTo("bad", 5)},
			},
			wantErr: true,
		},
		{
			name: "target beyond int32",
			choices: [][]Choice{
				{moveTo("bad", 1<<32)},
			},
			wantErr: true,
		},
		{
			name: "bad distribution",
			choices: [][]Choice{
				{{Label: "half", Branches: []Tr{{To: 1, P: prob.Half()}}}},
				nil,
			},
			wantErr: true,
		},
		{
			name: "zero probability branch",
			choices: [][]Choice{
				{{Label: "z", Branches: []Tr{{To: 1, P: prob.One()}, {To: 0, P: prob.Zero()}}}},
				nil,
			},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := New(tt.choices)
			if err == nil {
				if tt.numStates != 0 {
					m.NumStates = tt.numStates
				}
				err = m.Validate()
			}
			if (err != nil) != tt.wantErr {
				t.Errorf("New/Validate = %v, wantErr %t", err, tt.wantErr)
			}
		})
	}
}

func TestReachWithinTicksChain(t *testing.T) {
	// 0 -tick-> 1 -tick-> 2 (target, absorbing).
	m := mustNew([][]Choice{
		{tickTo("a", 1)},
		{tickTo("b", 2)},
		nil,
	})
	target := mask(3, 2)
	tests := []struct {
		horizon int
		want    string
	}{
		{horizon: 0, want: "0"},
		{horizon: 1, want: "0"},
		{horizon: 2, want: "1"},
		{horizon: 5, want: "1"},
	}
	for _, goal := range []Goal{MinProb, MaxProb} {
		for _, tt := range tests {
			v, err := m.ReachWithinTicks(target, tt.horizon, goal)
			if err != nil {
				t.Fatalf("ReachWithinTicks: %v", err)
			}
			if got := v[0].String(); got != tt.want {
				t.Errorf("goal %v horizon %d: P = %s, want %s", goal, tt.horizon, got, tt.want)
			}
		}
	}
}

func TestReachWithinTicksChoice(t *testing.T) {
	// From 0 the adversary picks: tick to target 1, or tick to sink 2.
	m := mustNew([][]Choice{
		{tickTo("good", 1), tickTo("bad", 2)},
		nil,
		{tickTo("stay", 2)},
	})
	target := mask(3, 1)

	vMin, err := m.ReachWithinTicks(target, 10, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if !vMin[0].IsZero() {
		t.Errorf("min P = %v, want 0", vMin[0])
	}
	vMax, err := m.ReachWithinTicks(target, 10, MaxProb)
	if err != nil {
		t.Fatal(err)
	}
	if !vMax[0].IsOne() {
		t.Errorf("max P = %v, want 1", vMax[0])
	}
}

func TestReachWithinTicksGeometric(t *testing.T) {
	// Each tick flips a fair coin: target 1 or retry 0.
	m := mustNew([][]Choice{
		{tickCoin("flip", 1, 0)},
		nil,
	})
	target := mask(2, 1)
	for h, want := range map[int]prob.Rat{
		0: prob.Zero(),
		1: prob.Half(),
		2: prob.NewRat(3, 4),
		3: prob.NewRat(7, 8),
	} {
		v, err := m.ReachWithinTicks(target, h, MinProb)
		if err != nil {
			t.Fatal(err)
		}
		if !v[0].Equal(want) {
			t.Errorf("horizon %d: P = %v, want %v", h, v[0], want)
		}
	}
}

func TestReachWithinTicksZeroDurationTail(t *testing.T) {
	// A zero-duration move after the last tick still counts as within the
	// bound: 0 -tick-> 1 -move-> 2 (target) is reachable within 1 tick.
	m := mustNew([][]Choice{
		{tickTo("t", 1)},
		{moveTo("m", 2)},
		nil,
	})
	target := mask(3, 2)
	v, err := m.ReachWithinTicks(target, 1, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if !v[0].IsOne() {
		t.Errorf("P = %v, want 1 (zero-duration tail)", v[0])
	}
	// But with horizon 0 the tick itself is out of budget.
	v0, err := m.ReachWithinTicks(target, 0, MaxProb)
	if err != nil {
		t.Fatal(err)
	}
	if !v0[0].IsZero() {
		t.Errorf("P = %v at horizon 0, want 0", v0[0])
	}
}

func TestReachWithinTicksMinPrefersLateTick(t *testing.T) {
	// The minimizing adversary at the deadline can tick to discard the
	// remaining obligation: state 0 chooses a zero-duration move into the
	// target or a tick into the target. At horizon 0, ticking exceeds the
	// deadline so min picks it; max picks the free move.
	m := mustNew([][]Choice{
		{moveTo("now", 1), tickTo("later", 1)},
		nil,
	})
	target := mask(2, 1)
	vMin, err := m.ReachWithinTicks(target, 0, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if !vMin[0].IsZero() {
		t.Errorf("min P = %v, want 0", vMin[0])
	}
	vMax, err := m.ReachWithinTicks(target, 0, MaxProb)
	if err != nil {
		t.Fatal(err)
	}
	if !vMax[0].IsOne() {
		t.Errorf("max P = %v, want 1", vMax[0])
	}
}

func TestReachWithinTicksZenoCycle(t *testing.T) {
	m := mustNew([][]Choice{
		{moveTo("spin", 0), tickTo("t", 1)},
		nil,
	})
	_, err := m.ReachWithinTicks(mask(2, 1), 3, MinProb)
	if !errors.Is(err, ErrZenoCycle) {
		t.Errorf("err = %v, want ErrZenoCycle", err)
	}
}

func TestReachWithinTicksBadInput(t *testing.T) {
	m := mustNew([][]Choice{nil})
	if _, err := m.ReachWithinTicks(mask(2, 0), 1, MinProb); err == nil {
		t.Error("mismatched mask accepted")
	}
	if _, err := m.ReachWithinTicks(mask(1), -1, MinProb); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestOptAt(t *testing.T) {
	vals := []prob.Rat{prob.Half(), prob.One(), prob.NewRat(1, 4)}
	got, ok := OptAt(vals, []bool{true, false, true}, MinProb)
	if !ok || !got.Equal(prob.NewRat(1, 4)) {
		t.Errorf("OptAt min = %v, %t; want 1/4, true", got, ok)
	}
	got, ok = OptAt(vals, []bool{true, true, false}, MaxProb)
	if !ok || !got.IsOne() {
		t.Errorf("OptAt max = %v, %t; want 1, true", got, ok)
	}
	if _, ok := OptAt(vals, []bool{false, false, false}, MinProb); ok {
		t.Error("OptAt on empty mask reported ok")
	}
}

func TestExplore(t *testing.T) {
	// Timed automaton: 0 -tick-> coin: heads(1) absorbing target, tails
	// back to 0; plus a zero-duration reset choice 0 -> 0? (skipped: keep
	// it acyclic on non-tick edges).
	auto := &pa.Automaton[int]{
		Name:  "timed-coin",
		Start: []int{0},
		Steps: func(s int) []pa.Step[int] {
			if s != 0 {
				return nil
			}
			return []pa.Step[int]{
				{Action: "tick", Next: prob.MustUniform(1, 0)},
			}
		},
		Duration: func(a string) prob.Rat {
			if a == "tick" {
				return prob.One()
			}
			return prob.Zero()
		},
	}
	m, ix, err := Explore(auto, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ix.Len() != 2 {
		t.Fatalf("indexed %d states, want 2", ix.Len())
	}
	id0, ok := ix.ID(0)
	if !ok {
		t.Fatal("state 0 not indexed")
	}
	if got := ix.State(id0); got != 0 {
		t.Errorf("State(ID(0)) = %d, want 0", got)
	}
	if c := m.CSR(); !c.tick.get(c.choiceRow[id0]) {
		t.Error("tick action not marked as tick choice")
	}

	target := ix.Mask(func(s int) bool { return s == 1 })
	v, err := m.ReachWithinTicks(target, 2, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if want := prob.NewRat(3, 4); !v[id0].Equal(want) {
		t.Errorf("P = %v, want %v", v[id0], want)
	}

	if got := ix.Where(func(s int) bool { return s == 1 }); len(got) != 1 {
		t.Errorf("Where found %d states, want 1", len(got))
	}
}

// TestIndexBits: Bits packs Mask's answers 64 to a word, leaves the bits
// past the last state zero, and yields the same words for any worker
// count, including a fan-out finer than the word count.
func TestIndexBits(t *testing.T) {
	states := make([]int, 200)
	for i := range states {
		states[i] = 3 * i
	}
	ix := NewIndex(states)
	pred := func(s int) bool { return s%7 < 3 }
	want := ix.Mask(pred)
	defer SetMinGrainForTest(1)()
	for _, workers := range []int{1, 2, 3, 5} {
		words := ix.Bits(pred, workers)
		if len(words) != 4 {
			t.Fatalf("workers=%d: %d words, want 4", workers, len(words))
		}
		for i, in := range want {
			if got := words[i>>6]&(1<<(i&63)) != 0; got != in {
				t.Fatalf("workers=%d: bit %d = %t, Mask says %t", workers, i, got, in)
			}
		}
		if tail := words[3] >> (200 - 192); tail != 0 {
			t.Errorf("workers=%d: bits past the last state set: %#x", workers, tail)
		}
	}
}

func TestExploreBadDuration(t *testing.T) {
	auto := &pa.Automaton[int]{
		Start: []int{0},
		Steps: func(s int) []pa.Step[int] {
			if s != 0 {
				return nil
			}
			return []pa.Step[int]{{Action: "halftick", Next: prob.Point(1)}}
		},
		Duration: func(string) prob.Rat { return prob.Half() },
	}
	_, _, err := Explore(auto, ExploreOptions{})
	if !errors.Is(err, ErrBadDuration) {
		t.Errorf("err = %v, want ErrBadDuration", err)
	}
}

func TestQualitative(t *testing.T) {
	// 0: choice A -> 1 (target), choice B -> 2 (sink with self loop).
	// 3: single fair-coin choice between 1 and 3 (a.s. reaches target).
	m := mustNew([][]Choice{
		{moveTo("A", 1), moveTo("B", 2)},
		nil,
		{moveTo("stay", 2)},
		{{Label: "flip", Branches: []Tr{{To: 1, P: prob.Half()}, {To: 3, P: prob.Half()}}}},
	})
	target := mask(4, 1)

	avoid := m.Prob0E(target)
	for s, want := range []bool{true, false, true, false} {
		if avoid[s] != want {
			t.Errorf("Prob0E[%d] = %t, want %t", s, avoid[s], want)
		}
	}

	one := m.MinProbOne(target)
	for s, want := range []bool{false, true, false, true} {
		if one[s] != want {
			t.Errorf("MinProbOne[%d] = %t, want %t", s, one[s], want)
		}
	}

	pos := m.MaxProbPositive(target)
	for s, want := range []bool{true, true, false, true} {
		if pos[s] != want {
			t.Errorf("MaxProbPositive[%d] = %t, want %t", s, pos[s], want)
		}
	}
}

func TestMaxExpectedTicks(t *testing.T) {
	t.Run("geometric", func(t *testing.T) {
		m := mustNew([][]Choice{
			{tickCoin("flip", 1, 0)},
			nil,
		})
		v, err := m.MaxExpectedTicks(mask(2, 1), VIConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v[0]-2) > 1e-9 {
			t.Errorf("E = %g, want 2", v[0])
		}
	})
	t.Run("adversary maximizes", func(t *testing.T) {
		// Choice between a fair coin (E=2) and a 1/4 coin (E=4).
		m := mustNew([][]Choice{
			{
				tickCoin("fair", 1, 0),
				{Label: "biased", Tick: true, Branches: []Tr{
					{To: 1, P: prob.NewRat(1, 4)},
					{To: 0, P: prob.NewRat(3, 4)},
				}},
			},
			nil,
		})
		v, err := m.MaxExpectedTicks(mask(2, 1), VIConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v[0]-4) > 1e-9 {
			t.Errorf("E = %g, want 4", v[0])
		}
	})
	t.Run("escapable target is infinite", func(t *testing.T) {
		m := mustNew([][]Choice{
			{tickTo("good", 1), tickTo("bad", 2)},
			nil,
			{tickTo("stay", 2)},
		})
		v, err := m.MaxExpectedTicks(mask(3, 1), VIConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(v[0], 1) {
			t.Errorf("E = %g, want +Inf", v[0])
		}
	})
}

func TestMinExpectedTicks(t *testing.T) {
	t.Run("picks the faster coin", func(t *testing.T) {
		m := mustNew([][]Choice{
			{
				tickCoin("fair", 1, 0),
				{Label: "biased", Tick: true, Branches: []Tr{
					{To: 1, P: prob.NewRat(1, 4)},
					{To: 0, P: prob.NewRat(3, 4)},
				}},
			},
			nil,
		})
		v, err := m.MinExpectedTicks(mask(2, 1), VIConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v[0]-2) > 1e-9 {
			t.Errorf("E_min = %g, want 2 (the fair coin)", v[0])
		}
	})
	t.Run("unreachable target is infinite", func(t *testing.T) {
		m := mustNew([][]Choice{
			{tickTo("stay", 0)},
			nil,
		})
		v, err := m.MinExpectedTicks(mask(2, 1), VIConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(v[0], 1) {
			t.Errorf("E_min = %g, want +Inf", v[0])
		}
	})
	t.Run("min below max", func(t *testing.T) {
		m := mustNew([][]Choice{
			{
				tickCoin("fair", 1, 0),
				{Label: "slow", Tick: true, Branches: []Tr{
					{To: 1, P: prob.NewRat(1, 8)},
					{To: 0, P: prob.NewRat(7, 8)},
				}},
			},
			nil,
		})
		lo, err := m.MinExpectedTicks(mask(2, 1), VIConfig{})
		if err != nil {
			t.Fatal(err)
		}
		hi, err := m.MaxExpectedTicks(mask(2, 1), VIConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !(lo[0] < hi[0]) {
			t.Errorf("E_min %g not below E_max %g", lo[0], hi[0])
		}
	})
}

// TestHorizonMonotonicity checks, on a pseudo-randomly generated family of
// tick-structured MDPs, that reach probabilities are monotone in the
// horizon and that min never exceeds max.
func TestHorizonMonotonicity(t *testing.T) {
	build := func(seed uint32) *MDP {
		// Three states, state 2 absorbing; choices derived from seed bits.
		next := func() int { seed = seed*1664525 + 1013904223; return int(seed>>16) % 3 }
		choices := make([][]Choice, 3)
		for s := 0; s < 2; s++ {
			nChoices := 1 + next()%2
			for c := 0; c < nChoices; c++ {
				a, b := next(), next()
				if a == b {
					choices[s] = append(choices[s], tickTo("d", a))
				} else {
					choices[s] = append(choices[s], tickCoin("c", a, b))
				}
			}
		}
		return mustNew(choices)
	}
	for seed := uint32(1); seed <= 200; seed++ {
		m := build(seed)
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		target := mask(3, 2)
		var prevMin, prevMax prob.Rat
		for h := 0; h <= 6; h++ {
			vMin, err := m.ReachWithinTicks(target, h, MinProb)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			vMax, err := m.ReachWithinTicks(target, h, MaxProb)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if vMax[0].Less(vMin[0]) {
				t.Fatalf("seed %d horizon %d: max %v < min %v", seed, h, vMax[0], vMin[0])
			}
			if h > 0 && (vMin[0].Less(prevMin) || vMax[0].Less(prevMax)) {
				t.Fatalf("seed %d horizon %d: probabilities not monotone", seed, h)
			}
			prevMin, prevMax = vMin[0], vMax[0]
		}
	}
}
