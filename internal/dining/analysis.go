package dining

// This file wires the Lehmann–Rabin model into the proof method: it
// enumerates the digitized scheduler product, defines the paper's state
// sets over product states, states the five arrows of Section 6.2, checks
// each against the model by exact worst-case value iteration, and rebuilds
// the paper's derivation of T --13,1/8--> C and the expected-time bound of
// 63 as machine-checked artifacts.

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/prob"
	"repro/internal/sched"
	"repro/internal/sim"
)

// PState is a scheduler-product state of the Lehmann–Rabin ring.
type PState = sched.State[State]

// Analysis is an enumerated Lehmann–Rabin instance ready for checking.
type Analysis struct {
	// N is the ring size; K the steps-per-window digitization bound.
	N, K int
	// Model is the algorithm; Auto the scheduler product.
	Model *Model
	// MDP and Index hold the enumerated product.
	MDP   *mdp.MDP
	Index *mdp.Index[PState]
	// Universe is the reachable product space over Index, for subset side
	// conditions; the registry sets are materialised on it.
	Universe *core.Universe[PState]
	// Schema names the digitized Unit-Time schema.
	Schema core.SchemaInfo

	sets map[string]core.Set[PState]

	// The five-arrow chain, solved once: the MDP is immutable, so
	// CheckPaperChain and BuildPaperProof share one set of results.
	chainOnce sync.Once
	chain     []core.CheckResult[PState]
	chainErr  error
}

// Opts configures on-the-fly exploration of the product space: the
// state limit, the exploration and solver parallelism, and the explorer's
// byte budget.
type Opts = mdp.ExploreOptions

// NewAnalysisOpts explores the n-process ring under the
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
		return nil, fmt.Errorf("dining: exploring product: %w", err)
	}
	return newAnalysis(n, k, model, m, ix), nil
}

func newAnalysis(n, k int, model *Model, m *mdp.MDP, ix *mdp.Index[PState]) *Analysis {
	a := &Analysis{
		N:        n,
		K:        k,
		Model:    model,
		MDP:      m,
		Index:    ix,
		Universe: core.IndexUniverse(ix, m.Workers),
		Schema:   core.UnitTimeSchema(k),
	}
	a.sets = map[string]core.Set[PState]{
		"T":  a.set("T", InT),
		"C":  a.set("C", InC),
		"RT": a.set("RT", InRT),
		"F":  a.set("F", InF),
		"G":  a.set("G", InG),
		"P":  a.set("P", InP),
	}
	return a
}

func (a *Analysis) set(name string, pred func(State) bool) core.Set[PState] {
	return a.Universe.Materialize(core.NewSet(name, sched.LiftPred(pred)))
}

// Sets returns the registry of the paper's named state sets, lifted to
// product states and materialised on the Universe.
func (a *Analysis) Sets() map[string]core.Set[PState] {
	out := make(map[string]core.Set[PState], len(a.sets))
	for k, v := range a.sets {
		out[k] = v
	}
	return out
}

// Set returns a named set from the registry.
func (a *Analysis) Set(name string) core.Set[PState] { return a.sets[name] }

// stmt builds a statement from registry names and string bounds.
func (a *Analysis) stmt(fromExpr, toExpr, time, pr string) core.Statement[PState] {
	from, err := core.ParseSetExpr(a.sets, fromExpr)
	if err != nil {
		panic(err) // registry is static; a failure is a programming error
	}
	to, err := core.ParseSetExpr(a.sets, toExpr)
	if err != nil {
		panic(err)
	}
	return core.Statement[PState]{
		From:   from,
		To:     to,
		Time:   prob.MustParseRat(time),
		Prob:   prob.MustParseRat(pr),
		Schema: a.Schema,
	}
}

// PaperStatements returns the five arrows of Section 6.2 in proof order:
//
//	T  --2,1-->   RT∪C   (Proposition A.3)
//	RT --3,1-->   F∪G∪P  (Proposition A.15)
//	F  --2,1/2--> G∪P    (Proposition A.14)
//	G  --5,1/4--> P      (Proposition A.11)
//	P  --1,1-->   C      (Proposition A.1)
func (a *Analysis) PaperStatements() []core.Statement[PState] {
	return []core.Statement[PState]{
		a.stmt("T", "RT+C", "2", "1"),
		a.stmt("RT", "F+G+P", "3", "1"),
		a.stmt("F", "G+P", "2", "1/2"),
		a.stmt("G", "P", "5", "1/4"),
		a.stmt("P", "C", "1", "1"),
	}
}

// PaperStatementOrigins names the appendix proposition behind each
// statement of PaperStatements, index-aligned.
func PaperStatementOrigins() []string {
	return []string{
		"Proposition A.3",
		"Proposition A.15",
		"Proposition A.14",
		"Proposition A.11",
		"Proposition A.1",
	}
}

// ComposedStatement returns the headline claim T --13,1/8--> C.
func (a *Analysis) ComposedStatement() core.Statement[PState] {
	return a.stmt("T", "C", "13", "1/8")
}

// CheckPaperChain checks the five arrows against the enumerated model and
// returns the results in proof order. The arrows are solved on the first
// call; later calls, and BuildPaperProof, reuse the results.
func (a *Analysis) CheckPaperChain() ([]core.CheckResult[PState], error) {
	a.chainOnce.Do(func() {
		a.chain, a.chainErr = core.CheckAll(a.MDP, a.Index, a.PaperStatements()...)
	})
	return append([]core.CheckResult[PState](nil), a.chain...), a.chainErr
}

// BuildPaperProof reproduces the Section 6.2 derivation: each premise is
// checked against the model, weakened per Proposition 3.2 so the chain
// connects, and composed by Theorem 3.4 into T --13,1/8--> C.
func (a *Analysis) BuildPaperProof() (*core.Proof[PState], error) {
	results, err := a.CheckPaperChain()
	if err != nil {
		return nil, err
	}
	origins := PaperStatementOrigins()

	premises := make([]*core.Proof[PState], len(results))
	for i, r := range results {
		p, err := core.PremiseFromResult(r, origins[i])
		if err != nil {
			return nil, err
		}
		premises[i] = p
	}

	cSet := a.Set("C")
	pSet := a.Set("P")
	gSet := a.Set("G")

	// Weaken each interior arrow so that consecutive targets and sources
	// match: the paper's implicit applications of Proposition 3.2.
	w2, err := core.Weaken(premises[1], cSet) // RT∪C --3,1--> F∪G∪P∪C
	if err != nil {
		return nil, err
	}
	w3, err := core.Weaken(premises[2], core.Union(gSet, pSet, cSet)) // F∪G∪P∪C --2,1/2--> (G∪P)∪(G∪P∪C)
	if err != nil {
		return nil, err
	}
	w3, err = core.RenameTo(a.Universe, w3, core.Union(gSet, pSet, cSet)) // ... --> G∪P∪C
	if err != nil {
		return nil, err
	}
	w4, err := core.Weaken(premises[3], core.Union(pSet, cSet)) // G∪P∪C --5,1/4--> P∪(P∪C)
	if err != nil {
		return nil, err
	}
	w4, err = core.RenameTo(a.Universe, w4, core.Union(pSet, cSet)) // ... --> P∪C
	if err != nil {
		return nil, err
	}
	w5, err := core.Weaken(premises[4], cSet) // P∪C --1,1--> C∪C
	if err != nil {
		return nil, err
	}
	w5, err = core.RenameTo(a.Universe, w5, cSet) // ... --> C
	if err != nil {
		return nil, err
	}

	return core.ComposeChain(a.Universe, premises[0], w2, w3, w4, w5)
}

// RetryLoop returns the Section 6.2 expected-time loop: the three
// probabilistic phases from RT, whose failure returns the state to RT.
func (a *Analysis) RetryLoop() core.RetryLoop {
	stmts := a.PaperStatements()
	return core.RetryLoop{Phases: core.PhasesFromStatements(stmts[1], stmts[2], stmts[3])}
}

// ExpectedTimeBound returns the paper's derived bound on the expected time
// from T to C: entry arrow (2) + E[loop] (60) + exit arrow (1) = 63.
func (a *Analysis) ExpectedTimeBound() (prob.Rat, error) {
	return a.RetryLoop().ExpectedTimeBound(prob.FromInt(2), prob.One())
}

// WorstExpectedTime computes, by value iteration on the product MDP, the
// supremum over digitized adversaries of the expected time until some
// process is in C, from the worst reachable state in T. It is the measured
// counterpart of ExpectedTimeBound.
func (a *Analysis) WorstExpectedTime() (float64, PState, error) {
	return worstExpectedTime(a.MDP, a.Index, a.Set("T"), a.Set("C"))
}

// worstExpectedTime is the largest maximum expected time to reach `to`
// over the states of from, and the first state attaining it.
func worstExpectedTime(m *mdp.MDP, ix *mdp.Index[PState], from, to core.Set[PState]) (float64, PState, error) {
	values, err := m.MaxExpectedTicks(to.Mask(ix), mdp.VIConfig{})
	if err != nil {
		return 0, PState{}, err
	}
	i, ok := worstIn(values, from.Mask(ix))
	if !ok {
		return 0, PState{}, core.ErrEmptyFrom
	}
	return values[i], ix.State(i), nil
}

// worstIn returns the first state of mask with the largest value, or
// ok = false when mask is empty.
func worstIn(values []float64, mask []bool) (worst int, ok bool) {
	worst = -1
	for i, in := range mask {
		if in && (worst < 0 || values[i] > values[worst]) {
			worst = i
		}
	}
	return worst, worst >= 0
}

// BestExpectedTime computes the infimum over digitized adversaries of the
// expected time until some process is in C, from the worst T state for
// that metric — the cooperative-scheduler counterpart of
// WorstExpectedTime, bounding the spread any scheduler can induce.
func (a *Analysis) BestExpectedTime() (float64, error) {
	values, err := a.MDP.MinExpectedTicks(a.Set("C").Mask(a.Index), mdp.VIConfig{})
	if err != nil {
		return 0, err
	}
	i, ok := worstIn(values, a.Set("T").Mask(a.Index))
	if !ok {
		return 0, core.ErrEmptyFrom
	}
	return values[i], nil
}

// ProgressCurve computes the exact worst-case probability of reaching C
// from the worst T state, for every horizon up to maxHorizon — the
// quantitative landscape around the paper's (13, 1/8) point, and the
// lower-bound information Section 7 asks for: horizons where the curve is
// below 1/8 certify that the claim fails there against the digitized
// adversaries.
func (a *Analysis) ProgressCurve(maxHorizon int) ([]core.CurvePoint, error) {
	return core.WorstCaseCurve(a.MDP, a.Index, a.Set("T"), a.Set("C"), maxHorizon)
}

// WorstWitness extracts a most-damning schedule for the composed claim:
// the adversary choices and coin outcomes that minimize the probability
// of reaching C within the horizon, starting from the worst T state.
func (a *Analysis) WorstWitness(horizon int) ([]string, error) {
	st := a.ComposedStatement()
	r, err := core.CheckStatement(a.MDP, a.Index, st)
	if err != nil {
		return nil, err
	}
	fromID, ok := a.Index.ID(r.WorstState)
	if !ok {
		return nil, fmt.Errorf("dining: worst state not indexed")
	}
	steps, err := a.MDP.WorstWitness(a.Set("C").Mask(a.Index), horizon, fromID, 0)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(steps)+1)
	out = append(out, fmt.Sprintf("start %v (worst-case P = %v)", r.WorstState.Base, r.WorstProb))
	t := 0
	for _, ws := range steps {
		if ws.Action == sched.TickAction {
			t++
		}
		out = append(out, fmt.Sprintf("t<=%-2d %-9s p=%-4v -> %v",
			t, ws.Action, ws.BranchProb, a.Index.State(ws.Next).Base))
	}
	return out, nil
}

// QualitativeProgress runs the Zuck–Pnueli-style baseline: does every
// digitized adversary drive every reachable T-state to C with probability
// one? It returns the number of T-states and how many of them satisfy the
// almost-sure property.
func (a *Analysis) QualitativeProgress() (total, almostSure int) {
	one := a.MDP.MinProbOne(a.Set("C").Mask(a.Index))
	for i, in := range a.Set("T").Mask(a.Index) {
		if !in {
			continue
		}
		total++
		if one[i] {
			almostSure++
		}
	}
	return total, almostSure
}
