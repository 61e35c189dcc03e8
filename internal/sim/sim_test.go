package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// flipper is a one-process model that flips a fair coin until heads.
type flipState struct {
	Heads bool
	Flips int
}

type flipper struct{}

func (flipper) Name() string       { return "flipper" }
func (flipper) NumProcs() int      { return 1 }
func (flipper) Start() []flipState { return []flipState{{}} }

func (flipper) Moves(s flipState, i int) []pa.Step[flipState] {
	if s.Heads {
		return nil
	}
	return []pa.Step[flipState]{{
		Action: "flip",
		Next: prob.MustDist(
			prob.Outcome[flipState]{Value: flipState{Heads: true, Flips: s.Flips + 1}, Prob: prob.Half()},
			prob.Outcome[flipState]{Value: flipState{Heads: false, Flips: s.Flips + 1}, Prob: prob.Half()},
		),
	}}
}

func (flipper) UserMoves(flipState, int) []pa.Step[flipState] { return nil }

var _ sched.Model[flipState] = flipper{}

// twoPhase is a two-process model where process 1 becomes ready only after
// process 0 has moved, exercising deadline bookkeeping; process 0 also has
// a user move before it moves.
type twoState struct{ A, B bool }

type twoPhase struct{}

func (twoPhase) Name() string      { return "two-phase" }
func (twoPhase) NumProcs() int     { return 2 }
func (twoPhase) Start() []twoState { return []twoState{{}} }

func (twoPhase) Moves(s twoState, i int) []pa.Step[twoState] {
	switch {
	case i == 0 && !s.A:
		return []pa.Step[twoState]{{Action: "a", Next: prob.Point(twoState{A: true, B: s.B})}}
	case i == 1 && s.A && !s.B:
		return []pa.Step[twoState]{{Action: "b", Next: prob.Point(twoState{A: true, B: true})}}
	default:
		return nil
	}
}

func (twoPhase) UserMoves(s twoState, i int) []pa.Step[twoState] { return nil }

// indexer is a model whose Moves/UserMoves index a per-process array, as
// real models do — an out-of-range process index from a policy would
// panic inside the model if the engine did not validate it first.
type ixState struct{ Done [2]bool }

type indexer struct{}

func (indexer) Name() string     { return "indexer" }
func (indexer) NumProcs() int    { return 2 }
func (indexer) Start() []ixState { return []ixState{{}} }

func (indexer) Moves(s ixState, i int) []pa.Step[ixState] {
	if s.Done[i] {
		return nil
	}
	next := s
	next.Done[i] = true
	return []pa.Step[ixState]{{Action: "go", Next: prob.Point(next)}}
}

func (indexer) UserMoves(s ixState, i int) []pa.Step[ixState] {
	_ = s.Done[i]
	return nil
}

// ticker is a one-process model that is always ready: state counts steps.
type ticker struct{}

func (ticker) Name() string  { return "ticker" }
func (ticker) NumProcs() int { return 1 }
func (ticker) Start() []int  { return []int{0} }

func (ticker) Moves(s int, i int) []pa.Step[int] {
	return []pa.Step[int]{{Action: "tick", Next: prob.Point(s + 1)}}
}

func (ticker) UserMoves(int, int) []pa.Step[int] { return nil }

func TestRunOnceSlowest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res, err := RunOnce[flipState](flipper{}, Slowest[flipState](), func(s flipState) bool { return s.Heads },
		Options[flipState]{}, rng)
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if !res.Reached {
		t.Fatalf("target not reached: %+v", res)
	}
	// The slowest policy steps exactly at deadlines: reach time equals
	// the number of flips.
	if got, want := res.ReachedAt, float64(res.Final.Flips); got != want {
		t.Errorf("ReachedAt = %g, want %g (one flip per unit time)", got, want)
	}
}

func TestRunOncePacedFasterThanSlowest(t *testing.T) {
	seed := int64(7)
	slow, err := RunOnce[flipState](flipper{}, Slowest[flipState](), func(s flipState) bool { return s.Heads },
		Options[flipState]{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunOnce[flipState](flipper{}, Paced[flipState](0.25), func(s flipState) bool { return s.Heads },
		Options[flipState]{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	// Identical coins (same seed and consumption order), so the faster
	// pacing reaches heads in a quarter of the time.
	if fast.Final.Flips != slow.Final.Flips {
		t.Fatalf("different coin sequences: %d vs %d flips", fast.Final.Flips, slow.Final.Flips)
	}
	if math.Abs(fast.ReachedAt-0.25*slow.ReachedAt) > 1e-9 {
		t.Errorf("paced(0.25) time %g, want %g", fast.ReachedAt, 0.25*slow.ReachedAt)
	}
}

func TestRunOnceTargetAtStart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res, err := RunOnce[flipState](flipper{}, Slowest[flipState](), func(flipState) bool { return true },
		Options[flipState]{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached || res.ReachedAt != 0 || res.Events != 0 {
		t.Errorf("start-state target: %+v", res)
	}
}

func TestRunOnceStartOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res, err := RunOnce[flipState](flipper{}, Slowest[flipState](), func(s flipState) bool { return s.Heads },
		Options[flipState]{Start: flipState{Heads: true, Flips: 9}, SetStart: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached || res.Final.Flips != 9 {
		t.Errorf("start override ignored: %+v", res)
	}
}

func TestRunOnceQuiescentStop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Target never satisfied; flipper quiesces at heads and the policy
	// stops legally.
	res, err := RunOnce[flipState](flipper{}, Slowest[flipState](), func(flipState) bool { return false },
		Options[flipState]{}, rng)
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if res.Reached {
		t.Error("unreachable target reported reached")
	}
	if !res.Final.Heads {
		t.Errorf("run stopped before quiescence: %+v", res)
	}
}

func TestRunOnceDeadlineBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res, err := RunOnce[twoState](twoPhase{}, Slowest[twoState](), func(s twoState) bool { return s.B },
		Options[twoState]{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("target not reached: %+v", res)
	}
	// Process 0 steps at its deadline (time 1); process 1 becomes ready
	// then and steps at time 2.
	if res.ReachedAt != 2 {
		t.Errorf("ReachedAt = %g, want 2", res.ReachedAt)
	}
}

func TestPolicyDesertionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	quitter := PolicyFunc[flipState](func(*View[flipState], *rand.Rand) (Choice, bool) {
		return Choice{}, false
	})
	_, err := RunOnce[flipState](flipper{}, quitter, func(flipState) bool { return false },
		Options[flipState]{}, rng)
	if !errors.Is(err, ErrPolicyDeserted) {
		t.Errorf("err = %v, want ErrPolicyDeserted", err)
	}
}

func TestBadChoicesRejected(t *testing.T) {
	tests := []struct {
		name string
		c    Choice
	}{
		{name: "time beyond deadline", c: Choice{Proc: 0, At: 5}},
		{name: "time in the past", c: Choice{Proc: 0, At: -1}},
		{name: "bad process", c: Choice{Proc: 9, At: 0}},
		{name: "bad move", c: Choice{Proc: 0, Move: 7, At: 0}},
		{name: "user move where none", c: Choice{Proc: 0, User: true, At: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			bad := PolicyFunc[flipState](func(*View[flipState], *rand.Rand) (Choice, bool) {
				return tt.c, true
			})
			_, err := RunOnce[flipState](flipper{}, bad, func(flipState) bool { return false },
				Options[flipState]{}, rng)
			if !errors.Is(err, ErrBadChoice) {
				t.Errorf("err = %v, want ErrBadChoice", err)
			}
		})
	}
}

// TestMaliciousProcIndexRejected is the regression test for the
// validation-order bug: applyChoice used to call m.Moves(s, c.Proc) before
// range-checking c.Proc, so a policy returning an out-of-range process
// panicked inside the model instead of yielding ErrBadChoice.
func TestMaliciousProcIndexRejected(t *testing.T) {
	for _, c := range []Choice{
		{Proc: 5, At: 0},
		{Proc: -1, At: 0},
		{Proc: 2, User: true, At: 0},
	} {
		malicious := PolicyFunc[ixState](func(*View[ixState], *rand.Rand) (Choice, bool) {
			return c, true
		})
		rng := rand.New(rand.NewSource(1))
		_, err := RunOnce[ixState](indexer{}, malicious, func(ixState) bool { return false },
			Options[ixState]{}, rng)
		if !errors.Is(err, ErrBadChoice) {
			t.Errorf("choice %+v: err = %v, want ErrBadChoice", c, err)
		}
	}
}

// TestRunOnceMaxTimeTruncation pins the Options.MaxTime boundary
// semantics: steps at times <= MaxTime are applied (inclusive bound);
// a step strictly past MaxTime is never applied or counted, so a run
// cannot report Reached at a time beyond the clock bound.
func TestRunOnceMaxTimeTruncation(t *testing.T) {
	// Slowest steps the always-ready ticker at t = 1, 2, 3, ...
	run := func(maxTime float64, target func(int) bool) Result[int] {
		t.Helper()
		res, err := RunOnce[int](ticker{}, Slowest[int](), target, Options[int]{MaxTime: maxTime},
			rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// The step at t=3 falls past MaxTime 2.5 and must not be applied.
	res := run(2.5, func(s int) bool { return s >= 3 })
	if res.Reached || res.Events != 2 || res.Final != 2 {
		t.Errorf("MaxTime 2.5: %+v, want unreached with 2 events", res)
	}

	// A step exactly at the bound is applied: the bound is inclusive.
	res = run(2, func(s int) bool { return s >= 2 })
	if !res.Reached || res.ReachedAt != 2 {
		t.Errorf("MaxTime 2: %+v, want reached at exactly 2", res)
	}

	// Truncation, not error: the run ends cleanly and never reports a
	// reach time past the bound.
	res = run(10, func(s int) bool { return s >= 4 })
	if !res.Reached || res.ReachedAt != 4 {
		t.Errorf("MaxTime 10: %+v, want reached at 4", res)
	}
	if res.ReachedAt > 10 {
		t.Errorf("reach time %v past MaxTime", res.ReachedAt)
	}
}

// The estimator tests below run on one engine goroutine (Workers: 1),
// the configuration that replaced the sequential estimators.

func TestEstimateReachProb(t *testing.T) {
	// P[heads within time 2] under the slowest policy = P[heads in <= 2
	// flips] = 3/4.
	prop, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads,
		2, 4000, Options[flipState]{}, ParallelOptions{Workers: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := prop.Wilson(3)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 0.75 || hi < 0.75 {
		t.Errorf("P[heads within 2] interval [%g, %g] excludes 3/4", lo, hi)
	}
}

func TestEstimateTimeToTarget(t *testing.T) {
	sum, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads,
		4000, Options[flipState]{}, ParallelOptions{Workers: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := sum.Mean()
	if err != nil {
		t.Fatal(err)
	}
	// Geometric with p = 1/2 and unit steps: expected time 2.
	if math.Abs(mean-2) > 0.15 {
		t.Errorf("mean time = %g, want about 2", mean)
	}
}

func TestEstimateTimeToTargetUnreachable(t *testing.T) {
	_, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest,
		func(flipState) bool { return false },
		1, Options[flipState]{MaxEvents: 50}, ParallelOptions{Workers: 1, Seed: 1})
	if err == nil {
		t.Error("unreachable target accepted")
	}
}

func TestRandomPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	res, err := RunOnce[flipState](flipper{}, Random[flipState](0.1), func(s flipState) bool { return s.Heads },
		Options[flipState]{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Errorf("random policy did not reach heads: %+v", res)
	}
}

func TestPacedValidation(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Paced(%g) did not panic", alpha)
				}
			}()
			Paced[flipState](alpha)
		}()
	}
}
