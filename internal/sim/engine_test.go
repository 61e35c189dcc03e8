package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// skewFlip is flipper with a 3/4–1/4 coin, heavy side first. The case
// studies draw only point masses and fair coins, which many samplers map
// from a uniform to the same outcome as Dist.Pick's cumulative scan; on
// this coin a sampler that partitions [0, 1) any other way (an alias
// table, say, which sends draws in [1/2, 3/4) to the light side) is
// caught by the identity tests below.
type skewFlip struct{}

func (skewFlip) Name() string       { return "skew-flipper" }
func (skewFlip) NumProcs() int      { return 1 }
func (skewFlip) Start() []flipState { return []flipState{{}} }

func (skewFlip) Moves(s flipState, i int) []pa.Step[flipState] {
	if s.Heads {
		return nil
	}
	return []pa.Step[flipState]{{
		Action: "flip",
		Next: prob.MustDist(
			prob.Outcome[flipState]{Value: flipState{Heads: false, Flips: s.Flips + 1}, Prob: prob.NewRat(3, 4)},
			prob.Outcome[flipState]{Value: flipState{Heads: true, Flips: s.Flips + 1}, Prob: prob.NewRat(1, 4)},
		),
	}}
}

func (skewFlip) UserMoves(flipState, int) []pa.Step[flipState] { return nil }

var _ sched.Model[flipState] = skewFlip{}

// TestCompiledMatchesUncompiledSkewedCoin pins the sampler contract on
// a distribution where it is observable: the compiled engine must draw
// exactly what the uncompiled RunOnce draws, on every seed.
func TestCompiledMatchesUncompiledSkewedCoin(t *testing.T) {
	cm := Compile[flipState](skewFlip{})
	if _, ok := cm.(*Compiled[flipState]); !ok {
		t.Fatal("skewFlip was not compiled")
	}
	for seed := int64(0); seed < 200; seed++ {
		want, err1 := RunOnce[flipState](skewFlip{}, Slowest[flipState](), heads, Options[flipState]{}, rand.New(rand.NewSource(seed)))
		got, err2 := RunOnce[flipState](cm, Slowest[flipState](), heads, Options[flipState]{}, rand.New(rand.NewSource(seed)))
		if err1 != nil || err2 != nil {
			t.Fatalf("seed=%d: errs %v / %v", seed, err1, err2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed=%d: compiled result %+v != uncompiled %+v", seed, got, want)
		}
	}
}

// TestCompiledParallelMatchesUncompiled: the parallel compiled engine
// reproduces the NoCompile run exactly, for any worker count, on the
// skewed coin.
func TestCompiledParallelMatchesUncompiled(t *testing.T) {
	const trials = 400
	for _, workers := range []int{1, 4} {
		base := ParallelOptions{Seed: 11, Workers: workers}
		noc := base
		noc.NoCompile = true
		got, repG, err1 := EstimateReachProbParallel[flipState](context.Background(), skewFlip{}, mkSlowest, heads,
			8, trials, Options[flipState]{}, base)
		ref, repR, err2 := EstimateReachProbParallel[flipState](context.Background(), skewFlip{}, mkSlowest, heads,
			8, trials, Options[flipState]{}, noc)
		if err1 != nil || err2 != nil {
			t.Fatalf("workers=%d: errs %v / %v", workers, err1, err2)
		}
		if got != ref {
			t.Errorf("workers=%d: compiled %+v != uncompiled %+v", workers, got, ref)
		}
		if repG.Completed != repR.Completed {
			t.Errorf("workers=%d: completed %d != %d", workers, repG.Completed, repR.Completed)
		}
	}
}

// TestArenaBitIdentical: reusing one scratch and RNG per worker (the
// default) must be invisible in the results — watchdog-armed runs, which
// give every trial a fresh scratch and RNG, produce the same estimate and
// report for every worker count.
func TestArenaBitIdentical(t *testing.T) {
	const trials = 600
	for _, workers := range []int{1, 4} {
		def := ParallelOptions{Seed: 5, Workers: workers}
		fresh := def
		fresh.TrialTimeout = time.Minute
		got, repG, err1 := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads,
			trials, Options[flipState]{}, def)
		want, repW, err2 := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads,
			trials, Options[flipState]{}, fresh)
		if err1 != nil || err2 != nil {
			t.Fatalf("workers=%d: errs %v / %v", workers, err1, err2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: arena summary %v != fresh-scratch %v", workers, got, want)
		}
		if repG.Completed != repW.Completed {
			t.Errorf("workers=%d: completed %d != %d", workers, repG.Completed, repW.Completed)
		}
	}
}

// TestTrialLoopZeroAlloc is the arena claim as an assertion: with a warm
// compiled cache, a shared policy and a reused scratch + RNG — exactly
// what each RunParallel worker holds — the steady-state trial loop
// allocates nothing.
func TestTrialLoopZeroAlloc(t *testing.T) {
	cm := Compile[flipState](flipper{})
	sc := newViewScratch[flipState](cm)
	rng := rand.New(rand.NewSource(0))
	pol := Slowest[flipState]()
	opts := Options[flipState]{}.withDefaults()
	var res Result[flipState]
	run := func() {
		rng.Seed(trialSeed(1, 0))
		if err := runTrial(sc, pol, heads, opts, rng, &res); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the compiled cache outside the measurement
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("steady-state trial loop allocates %.2f allocs/op, want 0", avg)
	}
}

// TestPackedInterningSharedCache: a model with a sched.Packer is interned
// by packed key; the cache warms once and serves identical results, and
// the count matches the unpacked cache for the same run.
func TestPackedInterningZeroStateGrowth(t *testing.T) {
	cm := Compile[flipState](packedFlip{}).(*Compiled[flipState])
	if cm.packer == nil {
		t.Fatal("packer not detected on a sched.Packer model")
	}
	first, _, err := EstimateReachProbParallel[flipState](context.Background(), cm, mkSlowest, heads, 5, 400,
		Options[flipState]{}, ParallelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	warm := cm.count.Load()
	if warm == 0 {
		t.Fatal("no states interned after a full run")
	}
	second, _, err := EstimateReachProbParallel[flipState](context.Background(), cm, mkSlowest, heads, 5, 400,
		Options[flipState]{}, ParallelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cm.count.Load() != warm {
		t.Errorf("second identical run grew the packed cache: %d -> %d states", warm, cm.count.Load())
	}
	if first != second {
		t.Errorf("warm packed cache run %+v != cold run %+v", second, first)
	}

	// And the packed cache answers the same runs as the struct-keyed one.
	plain, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 5, 400,
		Options[flipState]{}, ParallelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first != plain {
		t.Errorf("packed-interned run %+v != struct-interned %+v", first, plain)
	}
}

// packedFlip is flipper plus a sched.Packer implementation, so the sim
// package can exercise the packed interning path without importing a
// case-study model (which would cycle: the models' policies import sim).
type packedFlip struct{ flipper }

func (packedFlip) PackState(s flipState) sched.Packed {
	var p sched.Packed
	if s.Heads {
		p[0] = 1
	}
	p[1] = uint64(s.Flips)
	return p
}

var _ sched.Packer[flipState] = packedFlip{}
