package mdp

import (
	"fmt"

	"repro/internal/prob"
)

// This file extends the tick-bounded analysis with per-horizon curves,
// floating-point value iteration (for models too large for exact
// rationals), and worst-case witness extraction — the machinery behind
// the "non-trivial lower bound on the time for progress" direction the
// paper lists as future work in Section 7: the curve of worst-case
// probabilities as a function of the horizon locates the exact threshold
// where a (t, p) claim starts to hold.

// ReachWithinTicksLayers is ReachWithinTicks keeping every horizon layer:
// the result has horizon+1 rows, row h giving the optimal probability of
// reaching the target within h ticks from each state.
func (m *MDP) ReachWithinTicksLayers(target []bool, horizon int, goal Goal) ([][]prob.Rat, error) {
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

	layers := make([][]prob.Rat, 0, horizon+1)
	prev := make([]prob.Rat, c.n)
	for h := 0; h <= horizon; h++ {
		cur := make([]prob.Rat, c.n)
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
		layers = append(layers, cur)
		prev = cur
	}
	return layers, nil
}

// ReachWithinTicksFloat is the float64 counterpart of ReachWithinTicks,
// for products too large for exact rationals. Same semantics, same
// Zeno-cycle requirement, same level-parallel determinism; the CSR's
// float probability array is used directly, with no per-call conversion.
func (m *MDP) ReachWithinTicksFloat(target []bool, horizon int, goal Goal) ([]float64, error) {
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

	prev := make([]float64, c.n)
	cur := make([]float64, c.n)
	for h := 0; h <= horizon; h++ {
		ticksLeft := h > 0
		lo := int32(0)
		for _, hi := range levels {
			span := order[lo:hi]
			parallelFor(workers, len(span), func(w, a, b int) {
				for k := a; k < b; k++ {
					s := span[k]
					if target[s] {
						cur[s] = 1
						continue
					}
					cLo, cHi := c.choiceRow[s], c.choiceRow[s+1]
					if cLo == cHi {
						cur[s] = 0
						continue
					}
					var best float64
					for ci := cLo; ci < cHi; ci++ {
						var v float64
						tick := c.tick.get(ci)
						if !tick || ticksLeft {
							layer := cur
							if tick {
								layer = prev
							}
							for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
								v += c.pf[bi] * layer[c.col[bi]]
							}
						}
						if ci == cLo || (goal == MinProb && v < best) || (goal == MaxProb && v > best) {
							best = v
						}
					}
					cur[s] = best
				}
			})
			lo = hi
		}
		prev, cur = cur, prev
	}
	return prev, nil
}

// WitnessStep is one step of an extracted worst-case schedule.
type WitnessStep struct {
	// State is the state index before the step; Choice the index of the
	// adversary's optimal choice (local to the state); Action its label.
	State  int
	Choice int
	Action string
	// Next is the successor followed (the most damning probabilistic
	// branch); BranchProb its probability.
	Next       int
	BranchProb prob.Rat
}

// WorstWitness extracts a most-damning execution for the MinProb analysis:
// starting from `from` with the given tick budget, it follows, at every
// state, the adversary choice minimizing the reach probability and then
// the probabilistic branch with the smallest continuation value. The walk
// stops at the target, at budget exhaustion with no zero-duration move
// left, or after maxLen steps.
func (m *MDP) WorstWitness(target []bool, horizon int, from int, maxLen int) ([]WitnessStep, error) {
	layers, err := m.ReachWithinTicksLayers(target, horizon, MinProb)
	if err != nil {
		return nil, err
	}
	if from < 0 || from >= m.NumStates {
		return nil, fmt.Errorf("mdp: witness start %d out of range", from)
	}
	if maxLen <= 0 {
		maxLen = 4 * (horizon + 1)
	}
	c := m.CSR()

	var steps []WitnessStep
	s, h := int32(from), horizon
	for len(steps) < maxLen && !target[s] {
		cLo, cHi := c.choiceRow[s], c.choiceRow[s+1]
		if cLo == cHi {
			break
		}
		// Value of a choice under budget h.
		valueOf := func(ci int32) prob.Rat {
			tick := c.tick.get(ci)
			if tick && h == 0 {
				return prob.Zero()
			}
			layer := layers[h]
			if tick {
				layer = layers[h-1]
			}
			v := prob.Zero()
			for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
				v = v.Add(c.pr(bi).Mul(layer[c.col[bi]]))
			}
			return v
		}
		bestCI := cLo
		bestV := valueOf(cLo)
		for ci := cLo + 1; ci < cHi; ci++ {
			if v := valueOf(ci); v.Less(bestV) {
				bestV, bestCI = v, ci
			}
		}
		tick := c.tick.get(bestCI)
		if tick && h == 0 {
			// The optimal adversary move is to let time expire.
			break
		}
		layer := layers[h]
		if tick {
			layer = layers[h-1]
		}
		// Most damning branch: the successor with the smallest value.
		bLo, bHi := c.branchRow[bestCI], c.branchRow[bestCI+1]
		best := bLo
		for bi := bLo + 1; bi < bHi; bi++ {
			if layer[c.col[bi]].Less(layer[c.col[best]]) {
				best = bi
			}
		}
		steps = append(steps, WitnessStep{
			State:      int(s),
			Choice:     int(bestCI - cLo),
			Action:     c.label(bestCI),
			Next:       int(c.col[best]),
			BranchProb: c.pr(best),
		})
		s = c.col[best]
		if tick {
			h--
		}
	}
	return steps, nil
}
