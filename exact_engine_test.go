// Dense-vs-sparse identity of the exact engine. The on-the-fly explorer
// (mdp.Explore / mdp.ExplorePacked) is the only production MDP builder; a
// dense enumerator kept here as a test oracle (denseMDP) checks it: for
// every model the explored MDP is structurally identical — the same CSR
// arrays, position for position — to the densely enumerated one, and
// every solver returns the same answers on both. The solvers themselves
// must be deterministic in the worker count: parallel sweeps are
// bit-identical whether one goroutine sweeps or eight do (run under
// -race by make test-race, which also exercises the data-sharing
// discipline of the level schedule).
package timedpa_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/mdp"
	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
	"repro/internal/sim"
)

// denseMDP is the test oracle: it enumerates auto's reachable states with
// pa.Reachable, converts each state's steps choice by choice (duration
// one is a tick, zero an ordinary choice) and assembles the MDP with
// mdp.New. It returns the states in index order.
func denseMDP[S comparable](t *testing.T, auto *pa.Automaton[S]) (*mdp.MDP, []S) {
	t.Helper()
	states, err := auto.Reachable(0)
	if err != nil {
		t.Fatal(err)
	}
	id := make(map[S]int, len(states))
	for i, s := range states {
		id[s] = i
	}
	choices := make([][]mdp.Choice, len(states))
	for i, s := range states {
		for _, step := range auto.Steps(s) {
			d := auto.DurationOf(step.Action)
			if !d.IsZero() && !d.IsOne() {
				t.Fatalf("action %q has duration %v", step.Action, d)
			}
			var branches []mdp.Tr
			for _, o := range step.Next.Outcomes() {
				j, ok := id[o.Value]
				if !ok {
					t.Fatalf("successor of %v via %q not enumerated", s, step.Action)
				}
				branches = append(branches, mdp.Tr{To: j, P: o.Prob})
			}
			choices[i] = append(choices[i], mdp.Choice{Label: step.Action, Tick: d.IsOne(), Branches: branches})
		}
	}
	m, err := mdp.New(choices)
	if err != nil {
		t.Fatal(err)
	}
	return m, states
}

// exploreProduct builds the digitized product of a model both ways:
// densely via the denseMDP oracle and on the fly via ExplorePacked (with
// the compiled-model cache, as the analysis constructors do).
func exploreProduct[S comparable](t *testing.T, model sched.Model[S], k int, opts mdp.ExploreOptions) (dense, explored *mdp.MDP, dStates []sched.State[S], eIx *mdp.Index[sched.State[S]]) {
	t.Helper()
	auto, err := sched.Product[S](model, sched.Config{StepsPerWindow: k})
	if err != nil {
		t.Fatal(err)
	}
	dense, dStates = denseMDP(t, auto)
	cauto, err := sched.Product[S](sim.Compile[S](model), sched.Config{StepsPerWindow: k})
	if err != nil {
		t.Fatal(err)
	}
	if pack, ok := sched.ProductPacker[S](model); ok {
		explored, eIx, err = mdp.ExplorePacked(cauto, pack, opts)
	} else {
		explored, eIx, err = mdp.Explore(cauto, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dense, explored, dStates, eIx
}

// requireSameMDP pins structural identity: state count, state numbering
// (the oracle's states against the explorer's index), and the full CSR
// arrays. Once it passes, the explorer's index also indexes the dense MDP.
func requireSameMDP[S comparable](t *testing.T, dense, explored *mdp.MDP, dStates []S, eIx *mdp.Index[S]) {
	t.Helper()
	if dense.NumStates != explored.NumStates {
		t.Fatalf("dense %d states, explored %d", dense.NumStates, explored.NumStates)
	}
	if len(dStates) != eIx.Len() {
		t.Fatalf("dense index %d states, explored %d", len(dStates), eIx.Len())
	}
	for i, s := range dStates {
		if s != eIx.State(i) {
			t.Fatalf("state %d: dense %v != explored %v", i, s, eIx.State(i))
		}
	}
	if err := dense.CSR().Equal(explored.CSR()); err != nil {
		t.Fatal(err)
	}
}

// requireSolverAgreement runs every quantitative solver on both MDPs and
// checks exact equality for the rational analyses and epsilon agreement
// for the floating-point ones.
func requireSolverAgreement(t *testing.T, dense, explored *mdp.MDP, target []bool, horizon int) {
	t.Helper()

	for _, goal := range []mdp.Goal{mdp.MinProb, mdp.MaxProb} {
		dv, err := dense.ReachWithinTicks(target, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := explored.ReachWithinTicks(target, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		for s := range dv {
			if !dv[s].Equal(ev[s]) {
				t.Fatalf("goal %v state %d: dense %v != explored %v", goal, s, dv[s], ev[s])
			}
		}
	}

	dt, err := dense.MaxExpectedTicks(target, mdp.VIConfig{})
	if err != nil {
		t.Fatal(err)
	}
	et, err := explored.MaxExpectedTicks(target, mdp.VIConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for s := range dt {
		if math.Abs(dt[s]-et[s]) > 1e-9 && !(math.IsInf(dt[s], 1) && math.IsInf(et[s], 1)) {
			t.Fatalf("expected ticks state %d: dense %v != explored %v", s, dt[s], et[s])
		}
	}

	dq := dense.MinProbOne(target)
	eq := explored.MinProbOne(target)
	for s := range dq {
		if dq[s] != eq[s] {
			t.Fatalf("MinProbOne state %d: dense %v != explored %v", s, dq[s], eq[s])
		}
	}
}

func TestExploreMatchesDenseDining(t *testing.T) {
	cases := []struct{ n, k, horizon int }{{3, 1, 13}, {3, 2, 13}}
	if !testing.Short() {
		cases = append(cases, struct{ n, k, horizon int }{4, 1, 13})
	}
	for _, tc := range cases {
		model := dining.MustNew(tc.n)
		for _, workers := range []int{1, 4} {
			dense, explored, dStates, eIx := exploreProduct[dining.State](t, model, tc.k, mdp.ExploreOptions{Workers: workers})
			requireSameMDP(t, dense, explored, dStates, eIx)
			requireSolverAgreement(t, dense, explored, eIx.Mask(sched.LiftPred(dining.InC)), tc.horizon)
		}
	}
}

func TestExploreMatchesDenseElection(t *testing.T) {
	for _, n := range []int{3, 4} {
		model := election.MustNew(n)
		dense, explored, dStates, eIx := exploreProduct[election.State](t, model, 1, mdp.ExploreOptions{})
		requireSameMDP(t, dense, explored, dStates, eIx)
		requireSolverAgreement(t, dense, explored, eIx.Mask(sched.LiftPred(election.State.HasLeader)), 8)
	}
}

func TestExploreMatchesDenseConsensus(t *testing.T) {
	model := consensus.MustNew(3, 1)
	dense, explored, dStates, eIx := exploreProduct[consensus.State](t, model, 1, mdp.ExploreOptions{})
	requireSameMDP(t, dense, explored, dStates, eIx)
	target := eIx.Mask(sched.LiftPred(consensus.State.AllCorrectDecided))
	requireSolverAgreement(t, dense, explored, target, 6)
}

// requireSameCheck pins identical CheckStatement results on both MDPs;
// the index is the explorer's, valid for both once requireSameMDP passed.
func requireSameCheck[S comparable](t *testing.T, dense, explored *mdp.MDP, ix *mdp.Index[S], st core.Statement[S]) core.CheckResult[S] {
	t.Helper()
	rd, err := core.CheckStatement(dense, ix, st)
	if err != nil {
		t.Fatal(err)
	}
	re, err := core.CheckStatement(explored, ix, st)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Holds != re.Holds || !rd.WorstProb.Equal(re.WorstProb) || rd.FromCount != re.FromCount {
		t.Fatalf("%s: dense (%v, %v, %d) vs explored (%v, %v, %d)", st, rd.Holds, rd.WorstProb, rd.FromCount, re.Holds, re.WorstProb, re.FromCount)
	}
	return re
}

// TestExploreMatchesDenseTopology covers the unpacked explorer behind
// dining.NewGeneralAnalysis on the open path of three processes.
func TestExploreMatchesDenseTopology(t *testing.T) {
	a, err := dining.NewGeneralAnalysis(dining.Path(3), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := sched.Product[dining.State](dining.MustNewGeneral(dining.Path(3)), sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	dense, dStates := denseMDP(t, auto)
	requireSameMDP(t, dense, a.MDP, dStates, a.Index)
	requireSameCheck(t, dense, a.MDP, a.Index, a.ProgressStatement(prob.FromInt(13), prob.NewRat(1, 8)))
	requireSolverAgreement(t, dense, a.MDP, a.Index.Mask(sched.LiftPred(dining.InC)), 13)
}

// TestExploreMatchesDenseAppendix covers the rigged appendix product:
// lemma A.9 (two forced first flips) at pivot 0 on the ring of three,
// built as dining.CheckLemma builds it, and checked against the lemma
// result CheckLemma reports.
func TestExploreMatchesDenseAppendix(t *testing.T) {
	const n, k, pivot = 3, 1, 0
	var lemma dining.Lemma
	for _, l := range dining.AppendixLemmas() {
		if l.Name == "A.9" {
			lemma = l
		}
	}
	if lemma.Rigs == nil {
		t.Fatal("lemma A.9 not in the appendix suite")
	}
	base, err := dining.NewAnalysisOpts(n, k, dining.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[dining.State]bool)
	var baseStates []dining.State
	for i := 0; i < base.Index.Len(); i++ {
		if b := base.Index.State(i).Base; !seen[b] {
			seen[b] = true
			baseStates = append(baseStates, b)
		}
	}
	rigged, err := dining.NewRigged(n, lemma.Rigs(pivot, n)...)
	if err != nil {
		t.Fatal(err)
	}
	rigged.WithStarts(baseStates)
	auto, err := sched.Product[dining.RState](rigged, sched.Config{StepsPerWindow: k})
	if err != nil {
		t.Fatal(err)
	}
	explored, eIx, err := mdp.Explore(auto, mdp.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dense, dStates := denseMDP(t, auto)
	requireSameMDP(t, dense, explored, dStates, eIx)

	st := core.Statement[sched.State[dining.RState]]{
		From: core.NewSet("from", func(ps sched.State[dining.RState]) bool {
			return rigged.PendingAll(ps.Base) && lemma.From(ps.Base.S, pivot)
		}),
		To:     core.NewSet("to", func(ps sched.State[dining.RState]) bool { return lemma.To(ps.Base.S, pivot) }),
		Time:   prob.FromInt(int64(lemma.Time)),
		Prob:   lemma.Prob,
		Schema: core.UnitTimeSchema(k),
	}
	r := requireSameCheck(t, dense, explored, eIx, st)
	lr, err := dining.CheckLemma(lemma, pivot, n, k, baseStates)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Vacuous || lr.Holds != r.Holds || !lr.WorstProb.Equal(r.WorstProb) || lr.FromStates != r.FromCount {
		t.Fatalf("CheckLemma %+v vs oracle (%v, %v, %d)", lr, r.Holds, r.WorstProb, r.FromCount)
	}
}

// TestAnalysisOptsMatchesDense pins the user-facing constructors: the
// explorer-backed analyses must compute the paper's headline quantities
// identically to the dense oracle.
func TestAnalysisOptsMatchesDense(t *testing.T) {
	ae, err := dining.NewAnalysisOpts(3, 1, dining.Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := sched.Product[dining.State](dining.MustNew(3), sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	dense, dStates := denseMDP(t, auto)
	requireSameMDP(t, dense, ae.MDP, dStates, ae.Index)
	re, err := ae.CheckPaperChain()
	if err != nil {
		t.Fatal(err)
	}
	stmts := ae.PaperStatements()
	if len(stmts) != len(re) {
		t.Fatalf("check results: %d vs %d", len(stmts), len(re))
	}
	for i, st := range stmts {
		rd := requireSameCheck(t, dense, ae.MDP, ae.Index, st)
		if rd.Holds != re[i].Holds || !rd.WorstProb.Equal(re[i].WorstProb) {
			t.Fatalf("arrow %d: dense (%v, %v) vs explored (%v, %v)", i, rd.Holds, rd.WorstProb, re[i].Holds, re[i].WorstProb)
		}
	}
	requireSameCheck(t, dense, ae.MDP, ae.Index, ae.ComposedStatement())

	ee, err := election.NewAnalysisOpts(3, 1, election.Opts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	eauto, err := sched.Product[election.State](election.MustNew(3), sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	edense, eStates := denseMDP(t, eauto)
	requireSameMDP(t, edense, ee.MDP, eStates, ee.Index)
	ticks, err := edense.MaxExpectedTicks(ee.Index.Mask(sched.LiftPred(election.State.HasLeader)), mdp.VIConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := election.FreshStart(3)
	if err != nil {
		t.Fatal(err)
	}
	xd := -1.0
	for i, ps := range eStates {
		if ps.Base == fresh && ticks[i] > xd {
			xd = ticks[i]
		}
	}
	xe, err := ee.WorstExpectedTime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(xd-xe) > 1e-9 {
		t.Fatalf("worst expected time: dense %v vs explored %v", xd, xe)
	}
}

// TestExploreLimitAndBudget pins the two failure modes: the state limit
// fails with pa.Reachable's pa.ErrLimitExceeded, and the byte budget fails
// with a typed *mdp.BudgetError carrying the footprint reached.
func TestExploreLimitAndBudget(t *testing.T) {
	model := election.MustNew(3)
	auto, err := sched.Product[election.State](model, sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mdp.Explore(auto, mdp.ExploreOptions{Limit: 10}); !errors.Is(err, pa.ErrLimitExceeded) {
		t.Fatalf("limit err = %v, want pa.ErrLimitExceeded", err)
	}
	_, _, err = mdp.Explore(auto, mdp.ExploreOptions{MemBudget: 64})
	if !errors.Is(err, mdp.ErrMemBudget) {
		t.Fatalf("budget err = %v, want mdp.ErrMemBudget", err)
	}
	var be *mdp.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget err = %T, want *mdp.BudgetError", err)
	}
	if be.Budget != 64 || be.Bytes <= 64 || be.States <= 0 {
		t.Fatalf("budget error fields: %+v", be)
	}
}

// TestParallelSweepDeterminism pins the bit-identical-across-workers
// contract of every parallel solver, with the inline-sweep threshold
// forced to zero so small models still take the fan-out path. Under
// -race (make test-race) this also checks the data-sharing discipline.
func TestParallelSweepDeterminism(t *testing.T) {
	defer mdp.SetMinGrainForTest(1)()

	a, err := dining.NewAnalysisOpts(3, 1, dining.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := a.Index.Mask(sched.LiftPred(dining.InC))

	type result struct {
		reach []string
		flt   []float64
		ticks []float64
	}
	run := func(workers int) result {
		m, err := dining.NewAnalysisOpts(3, 1, dining.Opts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rv, err := m.MDP.ReachWithinTicks(target, 13, mdp.MinProb)
		if err != nil {
			t.Fatal(err)
		}
		strs := make([]string, len(rv))
		for i, r := range rv {
			strs[i] = r.String()
		}
		fv, err := m.MDP.ReachWithinTicksFloat(target, 13, mdp.MinProb)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := m.MDP.MaxExpectedTicks(target, mdp.VIConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return result{reach: strs, flt: fv, ticks: tv}
	}

	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for s := range ref.reach {
			if got.reach[s] != ref.reach[s] {
				t.Fatalf("workers=%d state %d: exact %s != %s", workers, s, got.reach[s], ref.reach[s])
			}
			if got.flt[s] != ref.flt[s] {
				t.Fatalf("workers=%d state %d: float %v != %v (not bit-identical)", workers, s, got.flt[s], ref.flt[s])
			}
			if got.ticks[s] != ref.ticks[s] && !(math.IsInf(got.ticks[s], 1) && math.IsInf(ref.ticks[s], 1)) {
				t.Fatalf("workers=%d state %d: ticks %v != %v (not bit-identical)", workers, s, got.ticks[s], ref.ticks[s])
			}
		}
	}
}
