// Compiled-vs-direct identity across the three case studies. The
// compiled-model layer (sim.Compile, on by default in every parallel
// entry point) must be a pure performance change: its frozen-scan
// samplers replay Dist.Pick draw for draw, so estimates are DeepEqual to
// the direct engine's for every model, seed and worker count — with and
// without packed state interning, on per-worker arenas and on the
// watchdog's fresh-scratch path, and through checkpoint/resume.
//
// The in-package half of these properties (hand-built models, user
// moves, a skewed coin, RunOnce) lives in internal/sim; the CLI tests
// additionally assert byte-identical default vs -nocompile output.
// TestSampledMatchesExact cross-checks the sampled numbers against the
// exact checker.
package timedpa_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/mdp"
	"repro/internal/pa"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

var identitySeeds = []int64{1, 2, 3}
var identityWorkers = []int{1, 2, 8}

// engineConfig is one engine configuration under test. The first entry
// is the uncompiled reference; every other entry must reproduce its
// results bit for bit.
type engineConfig struct {
	name      string
	noCompile bool
	unpacked  bool
	// watchdog arms TrialTimeout (far above any trial's run time), which
	// gives each trial a fresh scratch and RNG instead of the worker's
	// arena.
	watchdog bool
}

var engineConfigs = []engineConfig{
	{name: "direct", noCompile: true},
	{name: "default"},
	{name: "unpacked", unpacked: true},
	{name: "watchdog", watchdog: true},
}

// unpackedModel hides a model's sched.Packer implementation so the
// compiled layer falls back to interning raw state values; packed
// interning is a cache-key change and must be invisible in results.
type unpackedModel[S comparable] struct{ m sched.Model[S] }

func (u unpackedModel[S]) Name() string                  { return u.m.Name() }
func (u unpackedModel[S]) NumProcs() int                 { return u.m.NumProcs() }
func (u unpackedModel[S]) Start() []S                    { return u.m.Start() }
func (u unpackedModel[S]) Moves(s S, i int) []pa.Step[S] { return u.m.Moves(s, i) }
func (u unpackedModel[S]) UserMoves(s S, i int) []pa.Step[S] {
	return u.m.UserMoves(s, i)
}

// runConfigs runs the same estimate under every engine configuration and
// checks each result against the direct reference.
func runConfigs[S comparable, T any](t *testing.T, model sched.Model[S], opts sim.Options[S], seed int64, workers int,
	run func(m sched.Model[S], opts sim.Options[S], popts sim.ParallelOptions) (T, sim.RunReport, error)) {
	t.Helper()
	var ref T
	var refRep sim.RunReport
	for i, cfg := range engineConfigs {
		m := model
		if cfg.unpacked {
			m = unpackedModel[S]{m: model}
		}
		popts := sim.ParallelOptions{Seed: seed, Workers: workers, NoCompile: cfg.noCompile}
		if cfg.watchdog {
			popts.TrialTimeout = time.Minute
		}
		got, rep, err := run(m, opts, popts)
		if err != nil {
			t.Fatalf("%s seed=%d workers=%d: %v", cfg.name, seed, workers, err)
		}
		if i == 0 {
			ref, refRep = got, rep
			continue
		}
		if rep.Completed != refRep.Completed {
			t.Errorf("%s seed=%d workers=%d: completed %d != direct %d", cfg.name, seed, workers, rep.Completed, refRep.Completed)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s seed=%d workers=%d: %+v != direct %+v", cfg.name, seed, workers, got, ref)
		}
	}
}

func TestCompiledIdentityDining(t *testing.T) {
	const n, trials = 4, 192
	model := dining.MustNew(n)
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }
	deadlines := []float64{2, 4, 8, 13}
	for _, seed := range identitySeeds {
		for _, workers := range identityWorkers {
			runConfigs(t, model, opts, seed, workers,
				func(m sched.Model[dining.State], o sim.Options[dining.State], popts sim.ParallelOptions) (sim.EmpiricalCurve, sim.RunReport, error) {
					return sim.EstimateCurveParallel[dining.State](context.Background(), m, mk, dining.InC, deadlines, trials, o, popts)
				})
		}
	}
}

func TestCompiledIdentityElection(t *testing.T) {
	const n, trials = 3, 192
	model := election.MustNew(n)
	mk := func() sim.Policy[election.State] { return sim.Slowest[election.State]() }
	for _, seed := range identitySeeds {
		for _, workers := range identityWorkers {
			runConfigs(t, model, sim.Options[election.State]{}, seed, workers,
				func(m sched.Model[election.State], o sim.Options[election.State], popts sim.ParallelOptions) (sim.EmpiricalCurve, sim.RunReport, error) {
					return sim.EstimateCurveParallel[election.State](context.Background(), m, mk, election.State.HasLeader,
						[]float64{4, 8, 16}, trials, o, popts)
				})
		}
	}
}

func TestCompiledIdentityConsensus(t *testing.T) {
	const trials = 192
	model := consensus.MustNew(3, 1)
	start, err := model.StartWith([]uint8{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options[consensus.State]{Start: start, SetStart: true, MaxEvents: 20000}
	mk := func() sim.Policy[consensus.State] {
		return consensus.CrashLastReporter(sim.Random[consensus.State](0))
	}
	for _, seed := range identitySeeds {
		for _, workers := range identityWorkers {
			runConfigs(t, model, opts, seed, workers,
				func(m sched.Model[consensus.State], o sim.Options[consensus.State], popts sim.ParallelOptions) (stats.Proportion, sim.RunReport, error) {
					return sim.EstimateReachProbParallel[consensus.State](context.Background(), m, mk,
						consensus.State.AllCorrectDecided, 100, trials, o, popts)
				})
		}
	}
}

// TestCompiledIdentityResume drives the checkpoint/resume path on a real
// model: a compiled run interrupted mid-flight and resumed must equal
// the direct engine's uninterrupted run bit for bit.
func TestCompiledIdentityResume(t *testing.T) {
	const n, trials = 4, 640
	model := dining.MustNew(n)
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}

	want, _, err := sim.EstimateReachProbParallel[dining.State](context.Background(), model, mk, dining.InC, 13, trials, opts,
		sim.ParallelOptions{Seed: 5, NoCompile: true})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel a compiled run at its third checkpoint chunk, then resume
	// from the checkpoint with a different worker count.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chunks := 0
	popts := sim.ParallelOptions{
		Seed: 5, Workers: 2,
		CheckpointSink: func(*sim.Checkpoint) error {
			if chunks++; chunks == 3 {
				cancel()
			}
			return nil
		},
	}
	_, rep, err := sim.EstimateReachProbParallel[dining.State](ctx, model, mk, dining.InC, 13, trials, opts, popts)
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	got, rep2, err := sim.EstimateReachProbParallel[dining.State](context.Background(), model, mk, dining.InC, 13, trials, opts,
		sim.ParallelOptions{Seed: 5, Workers: 8, Resume: rep.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != rep.Completed || rep2.Completed != trials {
		t.Fatalf("resume accounting: %v then %v", rep, rep2)
	}
	if got != want {
		t.Errorf("compiled interrupt+resume %+v != direct uninterrupted %+v", got, want)
	}
}

// TestSampledMatchesExact is the sampled-vs-exact cross-check: the
// default engine's Monte Carlo estimates must reproduce the exact
// checker's answers. The oracle is the digitized product of the 3-process election
// protocol (internal/mdp): under the Slowest policy — the digitized
// worst case, stepping exactly at each unit-time deadline — the dense
// simulator realizes the MDP's minimizing adversary, so at even
// deadlines P[leader within H] equals ReachWithinTicks(H, MinProb) from
// the start state (3/8 at H=2: exactly one of three fair coins comes up
// on the surviving side). Per horizon, the identity seeds' runs are
// merged and the pooled Wilson interval (z=3) must cover the exact
// value — merging keeps the test deterministic while damping the
// per-seed wiggle of a 4000-trial sample.
func TestSampledMatchesExact(t *testing.T) {
	const n, trials = 3, 4000
	auto, err := sched.Product[election.State](election.MustNew(n), sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, ix, err := mdp.Explore(auto, mdp.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	start, ok := ix.ID(auto.Start[0])
	if !ok {
		t.Fatal("start state not enumerated")
	}
	mask := ix.Mask(sched.LiftPred(election.State.HasLeader))

	model := election.MustNew(n)
	for _, horizon := range []int{2, 4, 8} {
		v, err := m.ReachWithinTicksFloat(mask, horizon, mdp.MinProb)
		if err != nil {
			t.Fatal(err)
		}
		exact := v[start]
		if horizon == 2 && exact != 3.0/8 {
			t.Fatalf("one-round election probability = %v, want 3/8", exact)
		}
		var pooled stats.Proportion
		for _, seed := range identitySeeds {
			prop, _, err := sim.EstimateReachProbParallel[election.State](context.Background(), model,
				func() sim.Policy[election.State] { return sim.Slowest[election.State]() },
				election.State.HasLeader, float64(horizon), trials,
				sim.Options[election.State]{}, sim.ParallelOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			pooled.Merge(prop)
		}
		lo, hi, err := pooled.Wilson(3)
		if err != nil {
			t.Fatal(err)
		}
		if lo > exact || hi < exact {
			t.Errorf("H=%d: sampled estimate interval [%g, %g] excludes exact %g", horizon, lo, hi, exact)
		}
	}
}
