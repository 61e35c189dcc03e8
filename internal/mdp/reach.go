package mdp

import (
	"errors"
	"fmt"

	"repro/internal/prob"
)

// Goal selects the optimization direction: the adversary of the paper
// minimizes the probability of good events and maximizes expected time,
// so worst-case checks of U --t,p--> U' use MinProb.
type Goal int

// Optimization directions.
const (
	// MinProb computes inf over adversaries (worst case for progress
	// properties).
	MinProb Goal = iota + 1
	// MaxProb computes sup over adversaries.
	MaxProb
)

func (g Goal) better(a, b prob.Rat) bool {
	if g == MinProb {
		return a.Less(b)
	}
	return b.Less(a)
}

// ErrZenoCycle is returned when the zero-duration (non-tick) transition
// graph has a cycle. Tick-horizon analyses require the digitized model to
// make every within-window move consume a bounded resource; the sched
// package guarantees this by construction, and the error flags models
// that admit Zeno behaviour (time stopped forever), for which the
// worst-case quantities of the paper are not well defined.
var ErrZenoCycle = errors.New("mdp: cycle of zero-duration transitions (Zeno behaviour)")

// ReachWithinTicks computes, for every state, the optimal (per goal)
// probability that a target state is visited while at most horizon ticks
// have elapsed. Zero-duration moves after the last tick still count as
// "within the horizon", matching the paper's "within time t" (time is
// exactly t after t unit delays).
//
// The result is exact. The zero-duration transition graph must be acyclic
// (see ErrZenoCycle). Sweeps run level-parallel over the non-tick DAG
// (MDP.Workers); every state's value is a pure function of deeper levels
// and the previous tick layer, so the rationals are identical for any
// worker count.
func (m *MDP) ReachWithinTicks(target []bool, horizon int, goal Goal) ([]prob.Rat, error) {
	if len(target) != m.NumStates {
		return nil, fmt.Errorf("mdp: target mask has %d entries, want %d", len(target), m.NumStates)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("mdp: negative horizon %d", horizon)
	}
	c := m.CSR()
	order, levels, err := c.nonTickLevels()
	if err != nil {
		return nil, err
	}
	workers := m.workers()

	prev := make([]prob.Rat, c.n) // V_{h-1}
	cur := make([]prob.Rat, c.n)  // V_h
	for h := 0; h <= horizon; h++ {
		ticksLeft := h > 0
		lo := int32(0)
		for _, hi := range levels {
			span := order[lo:hi]
			parallelFor(workers, len(span), func(w, a, b int) {
				for k := a; k < b; k++ {
					s := span[k]
					cur[s] = c.optOneState(s, target, goal, cur, prev, ticksLeft)
				}
			})
			lo = hi
		}
		prev, cur = cur, prev
	}
	// After the swap, prev holds V_horizon.
	return prev, nil
}

// optOneState evaluates the Bellman operator at state s. cur must already
// hold valid values for every non-tick successor of s (guaranteed by the
// level schedule: non-tick successors live on strictly lower levels,
// completed behind earlier barriers); prev holds the previous tick layer.
// ticksLeft reports whether a tick is still within the horizon.
func (c *CSR) optOneState(s int32, target []bool, goal Goal, cur, prev []prob.Rat, ticksLeft bool) prob.Rat {
	if target[s] {
		return prob.One()
	}
	cLo, cHi := c.choiceRow[s], c.choiceRow[s+1]
	if cLo == cHi {
		return prob.Zero()
	}
	var best prob.Rat
	for ci := cLo; ci < cHi; ci++ {
		var v prob.Rat
		tick := c.tick.get(ci)
		if !tick || ticksLeft {
			layer := cur
			if tick {
				layer = prev
			}
			for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
				v = v.Add(c.pr(bi).Mul(layer[c.col[bi]]))
			}
		}
		// A tick at an exhausted horizon contributes probability zero of
		// meeting the bound (v stays the zero value).
		if ci == cLo || goal.better(v, best) {
			best = v
		}
	}
	return best
}

// OptAt aggregates a value vector over a set of states: the worst (for
// MinProb, the minimum) value among the states in the mask. It returns
// ok = false when the mask is empty.
func OptAt(values []prob.Rat, mask []bool, goal Goal) (prob.Rat, bool) {
	var best prob.Rat
	found := false
	for s, in := range mask {
		if !in {
			continue
		}
		if !found || goal.better(values[s], best) {
			best = values[s]
			found = true
		}
	}
	return best, found
}
