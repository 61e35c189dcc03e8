package mdp

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when value iteration fails to converge
// within the configured iteration budget.
var ErrNoConvergence = errors.New("mdp: value iteration did not converge")

// VIConfig configures floating-point value iteration.
type VIConfig struct {
	// Epsilon is the termination threshold on the max-norm difference of
	// successive iterates. Zero means 1e-12.
	Epsilon float64
	// MaxIter caps the number of sweeps. Zero means 1_000_000.
	MaxIter int
}

func (c VIConfig) withDefaults() VIConfig {
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-12
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 1_000_000
	}
	return c
}

// sweepPlan is the deterministic schedule of one value-iteration sweep:
// states grouped by non-tick level (csr.nonTickLevels), so that within a
// sweep non-tick edges read values already written this sweep (strictly
// lower levels, completed behind barriers) and tick edges read the
// previous sweep's array. When the non-tick graph is cyclic (Zeno models,
// possible for hand-built MDPs) the plan degrades to a pure Jacobi sweep:
// one level holding every state, all edges reading the previous array.
// Either way the trajectory is a pure function of the MDP — never of the
// worker count or scheduling — so results are bit-identical in parallel.
type sweepPlan struct {
	order  []int32
	levels []int32
	jacobi bool
}

func (c *CSR) sweepPlan() sweepPlan {
	order, levels, err := c.nonTickLevels()
	if err == nil {
		return sweepPlan{order: order, levels: levels}
	}
	order = make([]int32, c.n)
	for i := range order {
		order[i] = int32(i)
	}
	return sweepPlan{order: order, levels: []int32{int32(c.n)}, jacobi: true}
}

// valueIterate runs deterministic parallel value iteration to a fixpoint.
// prev carries the initial values and is consumed; eval computes one
// state's Bellman update reading non-tick successors from nonTick and
// tick successors from tick (the two coincide under a Jacobi plan). skip
// marks rows that stay pinned at their initial value (targets, states
// pinned by qualitative precomputation, +Inf rows).
func (m *MDP) valueIterate(cfg VIConfig, prev []float64, skip []bool,
	eval func(s int32, nonTick, tick []float64) float64) ([]float64, error) {
	cfg = cfg.withDefaults()
	c := m.CSR()
	workers := m.workers()
	plan := c.sweepPlan()
	cur := make([]float64, c.n)

	for iter := 0; iter < cfg.MaxIter; iter++ {
		// Pinned and skipped rows carry over; updated rows overwrite below.
		parallelFor(workers, c.n, func(w, a, b int) {
			copy(cur[a:b], prev[a:b])
		})
		nonTick := cur
		if plan.jacobi {
			nonTick = prev
		}
		delta := 0.0
		lo := int32(0)
		for _, hi := range plan.levels {
			span := plan.order[lo:hi]
			d := parallelForMax(workers, len(span), func(a, b int) float64 {
				dd := 0.0
				for k := a; k < b; k++ {
					s := span[k]
					if skip[s] {
						continue
					}
					nv := eval(s, nonTick, prev)
					if d := math.Abs(nv - prev[s]); d > dd {
						dd = d
					}
					cur[s] = nv
				}
				return dd
			})
			if d > delta {
				delta = d
			}
			lo = hi
		}
		prev, cur = cur, prev
		if delta <= cfg.Epsilon {
			return prev, nil
		}
	}
	return nil, fmt.Errorf("%w after %d sweeps", ErrNoConvergence, cfg.MaxIter)
}

// expectedTicks is the shared core of Max/MinExpectedTicks: optimize the
// expected number of ticks to the target, with +Inf pinned on infinite
// rows and the opt direction selected by maximize.
func (m *MDP) expectedTicks(target []bool, cfg VIConfig, maximize bool) ([]float64, error) {
	if len(target) != m.NumStates {
		return nil, fmt.Errorf("mdp: target mask has %d entries, want %d", len(target), m.NumStates)
	}
	c := m.CSR()

	// Finite value exactly on the states where the optimizing direction
	// reaches the target almost surely / at all.
	var finite []bool
	if maximize {
		finite = m.MinProbOne(target)
	} else {
		finite = m.MaxProbPositive(target)
	}

	v := make([]float64, c.n)
	skip := make([]bool, c.n)
	for s := range v {
		switch {
		case target[s]:
			skip[s] = true
		case !finite[s]:
			v[s] = math.Inf(1)
			skip[s] = true
		case c.terminal(s):
			skip[s] = true
		}
	}

	worst := math.Inf(-1)
	if !maximize {
		worst = math.Inf(1)
	}
	return m.valueIterate(cfg, v, skip, func(s int32, nonTick, tick []float64) float64 {
		best := worst
		for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
			val := 0.0
			layer := nonTick
			if c.tick.get(ci) {
				val = 1.0
				layer = tick
			}
			for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
				val += c.pf[bi] * layer[c.col[bi]]
			}
			if maximize == (val > best) && val != best {
				best = val
			}
		}
		return best
	})
}

// MaxExpectedTicks computes, for every state, the supremum over
// adversaries of the expected number of ticks until a target state is
// first visited. States from which some adversary avoids the target with
// positive probability get +Inf; for the rest, value iteration converges
// to the finite value.
//
// In the Lehmann–Rabin reproduction this is the worst-case expected time
// for some process to enter the critical region, compared against the
// paper's derived bound of 63 (Section 6.2).
func (m *MDP) MaxExpectedTicks(target []bool, cfg VIConfig) ([]float64, error) {
	return m.expectedTicks(target, cfg, true)
}

// MinExpectedTicks computes, for every state, the infimum over
// adversaries of the expected number of ticks until a target state is
// first visited — the cooperative-scheduler counterpart of
// MaxExpectedTicks, useful for reporting the best-case/worst-case spread
// of a model. States from which no adversary can reach the target at all
// get +Inf; value iteration from zero converges to the least fixpoint,
// which is the min-cost value whenever the minimizing scheduler reaches
// the target almost surely (true in particular when, as in the
// Lehmann–Rabin product, every state has a strategy driving it to the
// target with probability one).
func (m *MDP) MinExpectedTicks(target []bool, cfg VIConfig) ([]float64, error) {
	return m.expectedTicks(target, cfg, false)
}
