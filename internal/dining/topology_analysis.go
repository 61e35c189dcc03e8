package dining

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/prob"
	"repro/internal/sched"
)

// GeneralAnalysis enumerates a Lehmann–Rabin instance on an arbitrary
// topology for worst-case checking. Only the topology-independent sets
// (T, C, P — defined by local program counters) are exposed; the
// ring-specific G/RT analysis remains on Analysis.
type GeneralAnalysis struct {
	Topo     Topology
	K        int
	Model    *GeneralModel
	MDP      *mdp.MDP
	Index    *mdp.Index[PState]
	Universe *core.Universe[PState]
	Schema   core.SchemaInfo

	// trying and critical are T and C, materialised on Universe.
	trying, critical core.Set[PState]
}

// NewGeneralAnalysis enumerates the product of the topology under the
// k-steps-per-window digitization.
func NewGeneralAnalysis(t Topology, k, limit int) (*GeneralAnalysis, error) {
	model, err := NewGeneral(t)
	if err != nil {
		return nil, err
	}
	auto, err := sched.Product[State](model, sched.Config{StepsPerWindow: k})
	if err != nil {
		return nil, err
	}
	m, ix, err := mdp.Explore(auto, mdp.ExploreOptions{Limit: limit})
	if err != nil {
		return nil, fmt.Errorf("dining: enumerating %s product: %w", t.Name, err)
	}
	u := core.IndexUniverse(ix, m.Workers)
	return &GeneralAnalysis{
		Topo:     t,
		K:        k,
		Model:    model,
		MDP:      m,
		Index:    ix,
		Universe: u,
		Schema:   core.UnitTimeSchema(k),
		trying:   u.Materialize(core.NewSet("T", sched.LiftPred(InT))),
		critical: u.Materialize(core.NewSet("C", sched.LiftPred(InC))),
	}, nil
}

// ProgressStatement returns T --time,p--> C over this topology.
func (a *GeneralAnalysis) ProgressStatement(time, p prob.Rat) core.Statement[PState] {
	return core.Statement[PState]{
		From:   a.trying,
		To:     a.critical,
		Time:   time,
		Prob:   p,
		Schema: a.Schema,
	}
}

// CheckProgress checks T --time,p--> C exactly.
func (a *GeneralAnalysis) CheckProgress(time, p prob.Rat) (core.CheckResult[PState], error) {
	return core.CheckStatement(a.MDP, a.Index, a.ProgressStatement(time, p))
}

// ProgressCurve computes the exact worst-case probability of reaching C
// from the worst T state for every horizon up to maxHorizon.
func (a *GeneralAnalysis) ProgressCurve(maxHorizon int) ([]core.CurvePoint, error) {
	return core.WorstCaseCurve(a.MDP, a.Index, a.trying, a.critical, maxHorizon)
}

// WorstExpectedTime computes the worst-case expected time from T to C.
func (a *GeneralAnalysis) WorstExpectedTime() (float64, PState, error) {
	return worstExpectedTime(a.MDP, a.Index, a.trying, a.critical)
}
