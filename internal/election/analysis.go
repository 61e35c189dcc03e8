package election

// This file states and composes the arrow statements of the election
// protocol in the proof calculus of package core, mirroring what
// internal/dining does for the paper's own case study.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/prob"
	"repro/internal/sched"
	"repro/internal/sim"
)

// PState is a scheduler-product state of the election protocol.
type PState = sched.State[State]

// Analysis is an enumerated election instance ready for checking.
type Analysis struct {
	N, K     int
	Model    *Model
	MDP      *mdp.MDP
	Index    *mdp.Index[PState]
	Universe *core.Universe[PState]
	Schema   core.SchemaInfo

	// elected and fresh[k] (k = 1..N) are Elected and Fresh_k,
	// materialised on Universe.
	elected core.Set[PState]
	fresh   []core.Set[PState]
}

// Opts configures on-the-fly exploration of the product space: the
// state limit, the exploration and solver parallelism, and the explorer's
// byte budget.
type Opts = mdp.ExploreOptions

// NewAnalysisOpts explores the n-process protocol under the
// k-steps-per-window digitization with the on-the-fly CSR explorer: the
// model is compiled so exploration shares the Monte Carlo engine's
// sharded transition cache, product states are interned by their packed
// fingerprints, and every solver runs opts.Workers wide.
func NewAnalysisOpts(n, k int, opts Opts) (*Analysis, error) {
	model, err := New(n)
	if err != nil {
		return nil, err
	}
	auto, err := sched.Product[State](sim.Compile[State](model), sched.Config{StepsPerWindow: k})
	if err != nil {
		return nil, err
	}
	pack, _ := sched.ProductPacker[State](model) // Model is a sched.Packer (pack.go)
	m, ix, err := mdp.ExplorePacked(auto, pack, opts)
	if err != nil {
		return nil, fmt.Errorf("election: exploring product: %w", err)
	}
	return newAnalysis(n, k, model, m, ix), nil
}

func newAnalysis(n, k int, model *Model, m *mdp.MDP, ix *mdp.Index[PState]) *Analysis {
	u := core.IndexUniverse(ix, m.Workers)
	a := &Analysis{
		N:        n,
		K:        k,
		Model:    model,
		MDP:      m,
		Index:    ix,
		Universe: u,
		Schema:   core.UnitTimeSchema(k),
		elected:  u.Materialize(core.NewSet("Elected", sched.LiftPred(State.HasLeader))),
		fresh:    make([]core.Set[PState], n+1),
	}
	for j := 1; j <= n; j++ {
		a.fresh[j] = u.Materialize(freshSet(j))
	}
	return a
}

// Elected is the target set: a leader exists.
func (a *Analysis) Elected() core.Set[PState] { return a.elected }

// Fresh returns the set Fresh_k: exactly k processes active, no leader, no
// coins on the table (a round boundary).
func (a *Analysis) Fresh(k int) core.Set[PState] {
	if k >= 1 && k <= a.N {
		return a.fresh[k]
	}
	return freshSet(k)
}

func freshSet(k int) core.Set[PState] {
	return core.NewSet(fmt.Sprintf("Fresh_%d", k), sched.LiftPred(func(s State) bool {
		return s.IsFresh() && s.ActiveCount() == k
	}))
}

// RoundSuccessProb returns p_k = 1 - 2^(1-k): the probability that a round
// with k >= 2 active processes strictly reduces the active set (including
// electing a leader) — failure is all-heads or all-tails.
func RoundSuccessProb(k int) prob.Rat {
	return prob.One().Sub(prob.NewRat(2, 1<<uint(k)))
}

// LevelStatement returns Fresh_k --2, p_k--> Elected ∪ Fresh_{k-1} ∪ ... ∪
// Fresh_1 for k >= 2.
func (a *Analysis) LevelStatement(k int) core.Statement[PState] {
	sets := []core.Set[PState]{a.Elected()}
	for j := k - 1; j >= 1; j-- {
		sets = append(sets, a.Fresh(j))
	}
	return core.Statement[PState]{
		From:   a.Fresh(k),
		To:     core.Union(sets...),
		Time:   prob.FromInt(2),
		Prob:   RoundSuccessProb(k),
		Schema: a.Schema,
	}
}

// LevelStatements returns the chain for k = n down to 2.
func (a *Analysis) LevelStatements() []core.Statement[PState] {
	out := make([]core.Statement[PState], 0, a.N-1)
	for k := a.N; k >= 2; k-- {
		out = append(out, a.LevelStatement(k))
	}
	return out
}

// CheckLevels checks every level statement against the enumerated model.
func (a *Analysis) CheckLevels() ([]core.CheckResult[PState], error) {
	return core.CheckAll(a.MDP, a.Index, a.LevelStatements()...)
}

// BuildProof composes the level statements, Prop 3.2-weakening each level
// so the chain connects, into
//
//	Fresh_n --2(n-1), Π p_k--> Elected.
func (a *Analysis) BuildProof() (*core.Proof[PState], error) {
	elected := a.Elected()

	// down_k = Elected ∪ Fresh_k ∪ ... ∪ Fresh_1.
	down := func(k int) core.Set[PState] {
		sets := []core.Set[PState]{elected}
		for j := k; j >= 1; j-- {
			sets = append(sets, a.Fresh(j))
		}
		return core.Union(sets...)
	}

	var chain []*core.Proof[PState]
	for k := a.N; k >= 2; k-- {
		premise, _, err := core.CheckedPremise(a.MDP, a.Index, a.LevelStatement(k),
			fmt.Sprintf("round rule at %d active processes", k))
		if err != nil {
			return nil, err
		}
		step := premise
		if k < a.N {
			// Adjoin the already-passed levels so the chain connects:
			// From becomes down_k, To stays extensionally down_{k-1}.
			step, err = core.Weaken(premise, down(k-1))
			if err != nil {
				return nil, err
			}
			step, err = core.RenameFrom(a.Universe, step, down(k))
			if err != nil {
				return nil, err
			}
			step, err = core.RenameTo(a.Universe, step, down(k-1))
			if err != nil {
				return nil, err
			}
		}
		chain = append(chain, step)
	}
	composed, err := core.ComposeChain(a.Universe, chain...)
	if err != nil {
		return nil, err
	}
	// down_1 = Elected over the reachable universe: a lone active process
	// at a round boundary is unreachable from a fresh start with n >= 2
	// (a round that eliminates everyone else crowns the survivor).
	return core.RenameTo(a.Universe, composed, elected)
}

// ExpectedTimeBound bounds the expected election time from Fresh_n by
// summing the per-level retry loops: Σ_{k=2..n} 2/p_k.
func (a *Analysis) ExpectedTimeBound() (prob.Rat, error) {
	total := prob.Zero()
	for k := 2; k <= a.N; k++ {
		loop := core.RetryLoop{Phases: []core.Phase{{
			Name: fmt.Sprintf("level %d", k),
			Time: prob.FromInt(2),
			Prob: RoundSuccessProb(k),
		}}}
		e, err := loop.ExpectedTime()
		if err != nil {
			return prob.Rat{}, err
		}
		total = total.Add(e)
	}
	return total, nil
}

// WorstExpectedTime computes the measured counterpart: the supremum over
// digitized adversaries of the expected time to elect a leader from the
// fresh start.
func (a *Analysis) WorstExpectedTime() (float64, error) {
	values, err := a.MDP.MaxExpectedTicks(a.elected.Mask(a.Index), mdp.VIConfig{})
	if err != nil {
		return 0, err
	}
	fresh, err := FreshStart(a.N)
	if err != nil {
		return 0, err
	}
	worst := -1.0
	for i := 0; i < a.Index.Len(); i++ {
		ps := a.Index.State(i)
		if ps.Base != fresh {
			continue
		}
		if values[i] > worst {
			worst = values[i]
		}
	}
	if worst < 0 {
		return 0, core.ErrEmptyFrom
	}
	return worst, nil
}
