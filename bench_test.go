// Benchmark harness: one benchmark per experiment row of DESIGN.md's
// experiment index (E1–E15). Each benchmark regenerates the corresponding
// paper quantity — the five arrows of Section 6.2, the composed
// T --13,1/8--> C, the expected-time bounds, the Proposition 4.2 /
// Example 4.1 independence results, the digitization ablation, the
// qualitative baseline, and the Monte Carlo scaling run — and asserts the
// paper's bound on every iteration, so a regression that breaks the
// reproduction fails the bench.
package timedpa_test

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/mdp"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Shared fixtures: the n=3 analyses are built once; building them is
// benchmarked separately in BenchmarkEnumerateProduct.
var (
	lrOnce sync.Once
	lrK1   *dining.Analysis
	lrK2   *dining.Analysis
	elN3   *election.Analysis
)

func fixtures(b *testing.B) (*dining.Analysis, *dining.Analysis, *election.Analysis) {
	b.Helper()
	lrOnce.Do(func() {
		var err error
		if lrK1, err = dining.NewAnalysisOpts(3, 1, dining.Opts{}); err != nil {
			b.Fatal(err)
		}
		if lrK2, err = dining.NewAnalysisOpts(3, 2, dining.Opts{}); err != nil {
			b.Fatal(err)
		}
		if elN3, err = election.NewAnalysisOpts(3, 1, election.Opts{}); err != nil {
			b.Fatal(err)
		}
	})
	return lrK1, lrK2, elN3
}

// benchArrow checks one paper arrow (by index into PaperStatements) on
// every iteration and asserts it holds.
func benchArrow(b *testing.B, idx int) {
	b.Helper()
	a, _, _ := fixtures(b)
	st := a.PaperStatements()[idx]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.CheckStatement(a.MDP, a.Index, st)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds {
			b.Fatalf("paper statement fails: %s", r)
		}
	}
}

// E2 (Proposition A.3): T --2,1--> RT∪C.
func BenchmarkArrowT_RT(b *testing.B) { benchArrow(b, 0) }

// E3 (Proposition A.15): RT --3,1--> F∪G∪P.
func BenchmarkArrowRT_FGP(b *testing.B) { benchArrow(b, 1) }

// E4 (Proposition A.14): F --2,1/2--> G∪P.
func BenchmarkArrowF_GP(b *testing.B) { benchArrow(b, 2) }

// E5 (Proposition A.11): G --5,1/4--> P.
func BenchmarkArrowG_P(b *testing.B) { benchArrow(b, 3) }

// E1 (Proposition A.1): P --1,1--> C.
func BenchmarkArrowP_C(b *testing.B) { benchArrow(b, 4) }

// E6: the Section 6.2 derivation — check all five premises and compose
// them into T --13,1/8--> C.
func BenchmarkComposedT_C(b *testing.B) {
	a, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := a.BuildPaperProof()
		if err != nil {
			b.Fatal(err)
		}
		if !proof.Stmt.Prob.Equal(prob.NewRat(1, 8)) || !proof.Stmt.Time.Equal(prob.FromInt(13)) {
			b.Fatalf("composed statement %s", proof.Stmt)
		}
	}
}

// E6 (direct): model-check T --13,1/8--> C at horizon 13 in one shot.
func BenchmarkDirectT_C(b *testing.B) {
	a, _, _ := fixtures(b)
	st := a.ComposedStatement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.CheckStatement(a.MDP, a.Index, st)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds {
			b.Fatalf("composed statement fails directly: %s", r)
		}
	}
}

// E7a: the expected-time recurrence of Section 6.2 (E[V] = 60, bound 63).
func BenchmarkExpectedTimeRecurrence(b *testing.B) {
	a, _, _ := fixtures(b)
	for i := 0; i < b.N; i++ {
		total, err := a.ExpectedTimeBound()
		if err != nil {
			b.Fatal(err)
		}
		if !total.Equal(prob.FromInt(63)) {
			b.Fatalf("bound = %v, want 63", total)
		}
	}
}

// E7b: the measured worst-case expected time via value iteration.
func BenchmarkExpectedTimeMDP(b *testing.B) {
	a, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst, _, err := a.WorstExpectedTime()
		if err != nil {
			b.Fatal(err)
		}
		if worst > 63 {
			b.Fatalf("worst expected time %.4f exceeds 63", worst)
		}
	}
}

// twoCoins is the Example 4.1 system for E8/E9.
type twoCoins struct{ P, Q string }

func twoCoinsAutomaton() *pa.Automaton[twoCoins] {
	return &pa.Automaton[twoCoins]{
		Name:  "two-coins",
		Start: []twoCoins{{P: "?", Q: "?"}},
		Steps: func(s twoCoins) []pa.Step[twoCoins] {
			var steps []pa.Step[twoCoins]
			if s.P == "?" {
				steps = append(steps, pa.Step[twoCoins]{
					Action: "flipP",
					Next:   prob.MustUniform(twoCoins{P: "H", Q: s.Q}, twoCoins{P: "T", Q: s.Q}),
				})
			}
			if s.Q == "?" {
				steps = append(steps, pa.Step[twoCoins]{
					Action: "flipQ",
					Next:   prob.MustUniform(twoCoins{P: s.P, Q: "H"}, twoCoins{P: s.P, Q: "T"}),
				})
			}
			return steps
		},
	}
}

// E8 (Proposition 4.2): exact evaluation of first∩first and next against
// an adaptive adversary, asserting the guaranteed bounds.
func BenchmarkFirstNext(b *testing.B) {
	m := twoCoinsAutomaton()
	hyps := []events.Hypothesis[twoCoins]{
		{Action: "flipP", Pred: func(s twoCoins) bool { return s.P == "H" }, MinProb: prob.Half()},
		{Action: "flipQ", Pred: func(s twoCoins) bool { return s.Q == "T" }, MinProb: prob.Half()},
	}
	firstEvent := events.FirstConjunction(hyps...)
	nextEvent, err := events.NextOf(hyps...)
	if err != nil {
		b.Fatal(err)
	}
	adv := adversary.FirstEnabled(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := exec.FromState(m, adv, twoCoins{P: "?", Q: "?"})
		ivF, err := h.Prob(firstEvent, exec.EvalConfig{})
		if err != nil {
			b.Fatal(err)
		}
		ivN, err := h.Prob(nextEvent, exec.EvalConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if ivF.Lo.Less(prob.NewRat(1, 4)) || ivN.Lo.Less(prob.Half()) {
			b.Fatalf("Proposition 4.2 bounds violated: %v, %v", ivF, ivN)
		}
	}
}

// E9 (Example 4.1): the adaptive adversary shifts the conditional
// probability from 1/4 to 1/2 while the formal event stays at 1/4.
func BenchmarkExample41(b *testing.B) {
	m := twoCoinsAutomaton()
	spiteful := adversary.HistoryDependent(m, func(frag *pa.Fragment[twoCoins], enabled []pa.Step[twoCoins]) int {
		s := frag.Last()
		if s.P == "?" {
			return 0
		}
		if s.P == "H" && s.Q == "?" {
			return 0
		}
		return -1
	})
	event := events.And(
		events.First("flipP", func(s twoCoins) bool { return s.P == "H" }),
		events.First("flipQ", func(s twoCoins) bool { return s.Q == "T" }),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := exec.FromState(m, spiteful, twoCoins{P: "?", Q: "?"})
		iv, err := h.Prob(event, exec.EvalConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if !iv.Exact() || !iv.Lo.Equal(prob.NewRat(1, 4)) {
			b.Fatalf("Example 4.1 probability = %v, want exactly 1/4", iv)
		}
	}
}

// E10 (ablation): the G --5,1/4--> P arrow under the faster k=2
// digitization — the adversary gains speed, the bound must still hold.
func BenchmarkAblationSpeedK(b *testing.B) {
	_, a2, _ := fixtures(b)
	st := a2.PaperStatements()[3]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.CheckStatement(a2.MDP, a2.Index, st)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds {
			b.Fatalf("G arrow fails at k=2: %s", r)
		}
	}
}

// E11 (baseline): the Zuck–Pnueli-style qualitative analysis — every
// T-state reaches C with probability 1 under every adversary, with no
// time bound attached.
func BenchmarkBaselineLiveness(b *testing.B) {
	a, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total, almostSure := a.QualitativeProgress()
		if total == 0 || total != almostSure {
			b.Fatalf("qualitative progress %d/%d", almostSure, total)
		}
	}
}

// E12 (scaling): Monte Carlo expected time to C at n=10 under the
// spiteful dense-time scheduler; the paper's bound of 63 must hold with
// slack.
func BenchmarkSimExpectedTime(b *testing.B) {
	const n = 10
	model := dining.MustNew(n)
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunOnce[dining.State](model, dining.Spiteful(), dining.InC, opts, rng)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reached || res.ReachedAt > 63 {
			b.Fatalf("run did not reach C within the documented bound: %+v", res)
		}
	}
}

// E12 addendum (parallel scaling): trial throughput of the sharded Monte
// Carlo engine on the Lehmann–Rabin n=8 reach-probability curve. The pool is
// sized by GOMAXPROCS, so `go test -bench ParallelTrials -cpu 1,4`
// records the 1-vs-4-worker scaling reported in EXPERIMENTS.md. Every
// iteration asserts the sharded curve is bit-identical to a one-worker
// reference — the engine's reproducibility guarantee — and the custom
// trials/s metric is the quantity the scaling row tracks. The model is
// compiled once outside the timer (as the CLIs do), so the loop measures
// the warm-cache hot path.
func BenchmarkParallelTrials(b *testing.B) {
	const (
		n      = 8
		trials = 256
	)
	model := sim.Compile[dining.State](dining.MustNew(n))
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }
	deadlines := make([]float64, 16)
	for i := range deadlines {
		deadlines[i] = float64(i + 1)
	}
	ref, _, err := sim.EstimateCurveParallel[dining.State](context.Background(), model, mk, dining.InC, deadlines, trials, opts,
		sim.ParallelOptions{Workers: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := sim.EstimateCurveParallel[dining.State](context.Background(), model, mk, dining.InC, deadlines, trials, opts,
			sim.ParallelOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			b.Fatal("sharded curve differs from the 1-worker reference")
		}
	}
	b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

// E12 addendum (hot-path ablation ladder): the same n=8 curve workload
// as BenchmarkParallelTrials, one rung per engine optimisation so
// EXPERIMENTS.md can attribute the throughput to its parts. Rungs are
// cumulative: uncompiled reference engine; compiled cache (frozen-scan
// sampling with the successor-entry cache) interning raw state values;
// packed state interning (sched.Packer). Every rung runs on per-worker
// trial arenas; the last rung is the default engine configuration.
func BenchmarkTrialAblation(b *testing.B) {
	const (
		n      = 8
		trials = 256
	)
	raw := dining.MustNew(n)
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }
	deadlines := make([]float64, 16)
	for i := range deadlines {
		deadlines[i] = float64(i + 1)
	}
	rungs := []struct {
		name      string
		model     sched.Model[dining.State]
		noCompile bool
	}{
		// Compiled rungs pre-compile outside the timer, as the CLIs do.
		{name: "uncompiled", model: raw, noCompile: true},
		{name: "compiled_unpacked", model: sim.Compile[dining.State](unpackedModel[dining.State]{m: raw})},
		{name: "compiled", model: sim.Compile[dining.State](raw)},
	}
	for _, rung := range rungs {
		b.Run(rung.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, rep, err := sim.EstimateCurveParallel[dining.State](context.Background(), rung.model, mk, dining.InC, deadlines, trials, opts,
					sim.ParallelOptions{Seed: 1, NoCompile: rung.noCompile})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Completed != trials {
					b.Fatalf("completed %d/%d trials", rep.Completed, trials)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// E12 addendum (compile ablation, election): parallel time-to-leader
// trials with the compiled transition cache on (the default) and off, so
// BENCH_sim.json records the speedup per case study.
func BenchmarkElectionTrials(b *testing.B) {
	const trials = 512
	model := election.MustNew(3)
	mk := func() sim.Policy[election.State] { return sim.Slowest[election.State]() }
	for _, mode := range []struct {
		name      string
		nocompile bool
	}{{"compiled", false}, {"uncompiled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, rep, err := sim.EstimateTimeToTargetParallel[election.State](context.Background(), model, mk,
					election.State.HasLeader, trials, sim.Options[election.State]{},
					sim.ParallelOptions{Seed: 1, NoCompile: mode.nocompile})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Completed != trials {
					b.Fatalf("completed %d/%d trials", rep.Completed, trials)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// E12 addendum (compile ablation, consensus): parallel Ben-Or
// reach-probability trials, compiled vs uncompiled.
func BenchmarkConsensusTrials(b *testing.B) {
	const trials = 256
	model := consensus.MustNew(3, 1)
	start, err := model.StartWith([]uint8{0, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.Options[consensus.State]{Start: start, SetStart: true, MaxEvents: 20000}
	mk := func() sim.Policy[consensus.State] { return consensus.CrashLastReporter(sim.Random[consensus.State](0)) }
	for _, mode := range []struct {
		name      string
		nocompile bool
	}{{"compiled", false}, {"uncompiled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, rep, err := sim.EstimateReachProbParallel[consensus.State](context.Background(), model, mk,
					consensus.State.AllCorrectDecided, 100, trials, opts,
					sim.ParallelOptions{Seed: 1, NoCompile: mode.nocompile})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Completed != trials {
					b.Fatalf("completed %d/%d trials", rep.Completed, trials)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// E-extra: the third case study — a full Ben-Or consensus run under the
// targeted crash adversary, asserting agreement on every iteration.
func BenchmarkConsensusRun(b *testing.B) {
	model := consensus.MustNew(3, 1)
	start, err := model.StartWith([]uint8{0, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunOnce[consensus.State](model,
			consensus.CrashLastReporter(sim.Random[consensus.State](0)),
			consensus.State.AllCorrectDecided,
			sim.Options[consensus.State]{Start: start, SetStart: true, MaxEvents: 20000},
			rng)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Final.AgreementHolds() {
			b.Fatal("agreement violated")
		}
	}
}

// E-extra: the second case study — per-level checks and composition for
// leader election at n=3.
func BenchmarkElectionProof(b *testing.B) {
	_, _, e := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := e.BuildProof()
		if err != nil {
			b.Fatal(err)
		}
		if !proof.Stmt.Prob.Equal(prob.MustParseRat("3/8")) {
			b.Fatalf("composed election prob = %v", proof.Stmt.Prob)
		}
	}
}

// E13: the worst-case probability curve (the §7 lower-bound direction):
// exact worst case of P[T reaches C within t] for t = 0..16.
func BenchmarkProgressCurve(b *testing.B) {
	a, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve, err := a.ProgressCurve(16)
		if err != nil {
			b.Fatal(err)
		}
		tight, ok := core.TightestTime(curve, prob.NewRat(1, 8))
		if !ok || tight != 7 {
			b.Fatalf("tightest horizon = %d, %t; want 7", tight, ok)
		}
	}
}

// E-ablation (DESIGN.md §5.3): exact rationals vs float64 value iteration
// on the same G --5--> P query. Compare ns/op with BenchmarkArrowG_P.
func BenchmarkFloatVI(b *testing.B) {
	a, _, _ := fixtures(b)
	toMask := a.Index.Mask(sched.LiftPred(dining.InP))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := a.MDP.ReachWithinTicksFloat(toMask, 5, mdp.MinProb)
		if err != nil {
			b.Fatal(err)
		}
		if len(v) != a.Index.Len() {
			b.Fatal("short result")
		}
	}
}

// E-extra: the most-damning schedule extraction for the composed claim.
func BenchmarkWorstWitness(b *testing.B) {
	a, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines, err := a.WorstWitness(13)
		if err != nil {
			b.Fatal(err)
		}
		if len(lines) == 0 {
			b.Fatal("empty witness")
		}
	}
}

// E-extra: cost of exploring the digitized product itself (n=3, k=1).
func BenchmarkEnumerateProduct(b *testing.B) {
	model := dining.MustNew(3)
	for i := 0; i < b.N; i++ {
		auto, err := sched.Product[dining.State](model, sched.Config{StepsPerWindow: 1})
		if err != nil {
			b.Fatal(err)
		}
		m, _, err := mdp.Explore(auto, mdp.ExploreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if m.NumStates == 0 {
			b.Fatal("empty product")
		}
	}
}

// E22: the exact engine at scale — walk the dining n=3 k=2 product
// (≈35k states) frontier-by-frontier into CSR form with the on-the-fly
// explorer and model-check the composed T --13,1/8--> C claim on the
// result, exactly as `lrcheck -n 3 -k 2` does. states/s counts explored
// product states per wall-clock second of the full explore+solve loop —
// the quantity the STATES_FLOOR gate in `make bench-diff` enforces —
// and B/state is the resident CSR transition structure per state, the
// number that decides how far -mem-budget lets a ring grow.
func BenchmarkExactEngine(b *testing.B) {
	b.ReportAllocs()
	var states int
	var footprint int64
	for i := 0; i < b.N; i++ {
		a, err := dining.NewAnalysisOpts(3, 2, dining.Opts{})
		if err != nil {
			b.Fatal(err)
		}
		r, err := core.CheckStatement(a.MDP, a.Index, a.ComposedStatement())
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds {
			b.Fatalf("composed statement fails on the explored product: %s", r)
		}
		states = a.Index.Len()
		footprint = a.MDP.CSR().MemFootprint()
	}
	b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	b.ReportMetric(float64(footprint)/float64(states), "B/state")
}

// Observability overhead: the same parallel run with the telemetry hook
// disabled (nil Metrics — the default every existing caller gets) and
// enabled (the registry-backed obs.SimMetrics the CLIs install). The
// acceptance criterion is the allocs/op column: both modes must report the
// same allocation count, proving instrumentation adds zero allocations to
// the per-trial hot path; the ns/op delta is the (atomic-counter) price of
// a live progress display.
func BenchmarkMetricsOverhead(b *testing.B) {
	const (
		n      = 8
		trials = 256
	)
	model := sim.Compile[dining.State](dining.MustNew(n))
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }

	modes := []struct {
		name string
		met  sim.Metrics
	}{
		{"disabled", nil},
		{"enabled", obs.NewSimMetrics(obs.NewRegistry(), trials)},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, err := sim.EstimateReachProbParallel[dining.State](context.Background(), model, mk, dining.InC,
					13, trials, opts, sim.ParallelOptions{Seed: 1, Metrics: mode.met})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}

	// The ≤2% overhead budget, as an assertion: interleave disabled and
	// enabled runs and compare the per-mode minima (the least-noisy
	// paired estimator available without statistics). One sample proves
	// nothing, so the gate only trips at b.N >= 3 — `-benchtime=1x`
	// smoke runs pass through, `make bench`/bench-json enforce it.
	b.Run("overhead", func(b *testing.B) {
		met := obs.NewSimMetrics(obs.NewRegistry(), trials)
		run := func(met sim.Metrics) time.Duration {
			start := time.Now()
			_, _, err := sim.EstimateReachProbParallel[dining.State](context.Background(), model, mk, dining.InC,
				13, trials, opts, sim.ParallelOptions{Seed: 1, Metrics: met})
			if err != nil {
				b.Fatal(err)
			}
			return time.Since(start)
		}
		minOff := time.Duration(math.MaxInt64)
		minOn := minOff
		for i := 0; i < b.N; i++ {
			if d := run(nil); d < minOff {
				minOff = d
			}
			if d := run(met); d < minOn {
				minOn = d
			}
		}
		overhead := float64(minOn)/float64(minOff) - 1
		b.ReportMetric(100*overhead, "overhead-%")
		if b.N >= 3 && overhead > 0.02 {
			b.Fatalf("metrics overhead %.1f%% exceeds the 2%% budget (disabled %v, enabled %v)",
				100*overhead, minOff, minOn)
		}
	})
}

// BenchmarkSpanOverhead pins the cost of the chunk-lifecycle span seam
// (sim.ParallelOptions.SpanHooks) on the dining headline workload.
// Disabled hooks must cost one nil check per chunk and zero extra
// allocations per trial; enabled hooks (two spans' worth of JSONL per
// 64-trial chunk) must stay under the same 2% budget as the metrics
// seam, using the same paired-minima estimator.
func BenchmarkSpanOverhead(b *testing.B) {
	// 1024 trials = 16 chunks per sample: long enough that the 2%
	// budget (~100µs) sits above single-core scheduler jitter, which
	// drowned the gate at 256 trials, while keeping samples short
	// enough for ~100 measurement pairs per run.
	const (
		n      = 8
		trials = 1024
	)
	model := sim.Compile[dining.State](dining.MustNew(n))
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }
	tracer := span.New(io.Discard, span.Options{Service: "bench"})
	root := tracer.Start("job", span.SpanContext{})
	defer func() {
		root.End()
		tracer.Close()
	}()

	modes := []struct {
		name  string
		hooks sim.SpanHooks
	}{
		{"disabled", nil},
		{"enabled", span.ChunkSpans(tracer, root.Context())},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, err := sim.EstimateReachProbParallel[dining.State](context.Background(), model, mk, dining.InC,
					13, trials, opts, sim.ParallelOptions{Seed: 1, SpanHooks: mode.hooks})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}

	// The ≤2% budget as an assertion. Each iteration runs both modes
	// back to back (order alternating to cancel drift) and contributes
	// one enabled/disabled ratio; the reported metric is the median
	// ratio, but the gate trips on the *lower quartile*: noise is
	// symmetric between the paired halves, so unless the true overhead
	// really exceeds 2% even the quietest quarter of pairs will not —
	// a real regression (a per-trial span, a reflective encoder on the
	// write path) shifts the whole distribution and still fails
	// decisively. The metrics gate's cross-mode minima comparison
	// proved too fragile for this seam on a single-core box, where
	// run-level throughput drifts by several percent.
	b.Run("overhead", func(b *testing.B) {
		hooks := span.ChunkSpans(tracer, root.Context())
		run := func(h sim.SpanHooks) time.Duration {
			popts := sim.ParallelOptions{Seed: 1}
			popts.SpanHooks = h
			start := time.Now()
			_, _, err := sim.EstimateReachProbParallel[dining.State](context.Background(), model, mk, dining.InC,
				13, trials, opts, popts)
			if err != nil {
				b.Fatal(err)
			}
			return time.Since(start)
		}
		ratios := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			var off, on time.Duration
			if i%2 == 0 {
				off, on = run(nil), run(hooks)
			} else {
				on, off = run(hooks), run(nil)
			}
			ratios = append(ratios, float64(on)/float64(off))
		}
		sort.Float64s(ratios)
		median := ratios[len(ratios)/2] - 1
		q25 := ratios[len(ratios)/4] - 1
		b.ReportMetric(100*median, "overhead-%")
		if b.N >= 3 && q25 > 0.02 {
			b.Fatalf("span overhead exceeds the 2%% budget: lower quartile %.1f%%, median %.1f%% over %d paired ratios",
				100*q25, 100*median, len(ratios))
		}
	})
}

// BenchmarkBreakerOverhead pins the cost of the worker's circuit
// breaker on the RPC hot path. Every fabric RPC a worker sends is
// bracketed by Allow/Record on a fault.Breaker (two mutex round trips);
// the benchmark measures real loopback HTTP POSTs bare and bracketed,
// and the gate asserts the bracketed path stays within the same 2%
// budget as the metrics and span seams. Loopback HTTP on a shared box
// is far noisier than the in-process engine runs, so each sample is a
// batch of round trips and the gate uses the span seam's paired-ratio
// lower-quartile estimator rather than cross-mode minima.
func BenchmarkBreakerOverhead(b *testing.B) {
	// 64 round trips per sample: a closed-breaker Allow/Record pair
	// costs tens of nanoseconds against a ~100µs loopback POST, so the
	// batch exists to average per-request scheduler jitter, not to make
	// the overhead visible — the gate proves a *regression* (a syscall,
	// an allocation, contention on the breaker lock) would be caught.
	const rpcs = 64
	body := []byte(`{"lease":"bench","chunk":0}`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	client := srv.Client()

	post := func() error {
		resp, err := client.Post(srv.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}
	br := fault.NewBreaker(fault.BreakerOptions{})
	// batch times one sample of rpcs round trips, each bracketed the way
	// internal/fabric.Worker brackets its RPCs when a breaker is set: a
	// transport error is Recorded as failure, any HTTP response as
	// success.
	batch := func(br *fault.Breaker) time.Duration {
		start := time.Now()
		for i := 0; i < rpcs; i++ {
			if br == nil {
				if err := post(); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if err := br.Allow(); err != nil {
				b.Fatal(err)
			}
			err := post()
			br.Record(err)
			if err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}

	modes := []struct {
		name string
		br   *fault.Breaker
	}{
		{"bare", nil},
		{"breaker", br},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch(mode.br)
			}
			b.ReportMetric(float64(rpcs)*float64(b.N)/b.Elapsed().Seconds(), "rpcs/s")
		})
	}

	// The ≤2% budget as an assertion, alternating order to cancel drift
	// and gating on the lower quartile of paired ratios (see
	// BenchmarkSpanOverhead for why minima are too fragile here).
	b.Run("overhead", func(b *testing.B) {
		ratios := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			var off, on time.Duration
			if i%2 == 0 {
				off, on = batch(nil), batch(br)
			} else {
				on, off = batch(br), batch(nil)
			}
			ratios = append(ratios, float64(on)/float64(off))
		}
		sort.Float64s(ratios)
		median := ratios[len(ratios)/2] - 1
		q25 := ratios[len(ratios)/4] - 1
		b.ReportMetric(100*median, "overhead-%")
		if b.N >= 3 && q25 > 0.02 {
			b.Fatalf("breaker overhead exceeds the 2%% budget: lower quartile %.1f%%, median %.1f%% over %d paired ratios",
				100*q25, 100*median, len(ratios))
		}
	})
}
