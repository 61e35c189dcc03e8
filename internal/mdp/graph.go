package mdp

// This file contains the qualitative (graph-based) analyses: the states
// from which some adversary avoids a target forever (Prob0E), the states
// from which every adversary reaches a target almost surely (MinProbOne),
// and the states from which some adversary can reach it at all
// (MaxProbPositive). The expected-time solver pins its infinite values
// with them. MinProbOne is also the Zuck–Pnueli-style baseline the paper
// refines: "with probability 1, some process eventually enters its
// critical region" is MinProbOne, with no time bound attached
// (dining.Analysis.QualitativeProgress).
//
// Everything runs on the CSR form, and the backward searches share the
// memoized reverse adjacency instead of rebuilding it per call.

// canReachAvoiding is backward reachability of target through paths whose
// intermediate states avoid the blocked mask (blocked target states still
// count as reached; blocked non-target states are never expanded). A nil
// blocked mask blocks nothing.
func (m *MDP) canReachAvoiding(target, blocked []bool) []bool {
	c := m.CSR()
	revRow, revCol := c.reverse()
	seen := make([]bool, c.n)
	stack := make([]int32, 0, 64)
	for s, in := range target {
		if in {
			seen[s] = true
			if blocked == nil || !blocked[s] {
				stack = append(stack, int32(s))
			}
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for ri := revRow[s]; ri < revRow[s+1]; ri++ {
			p := revCol[ri]
			if seen[p] {
				continue
			}
			seen[p] = true
			if blocked == nil || !blocked[p] {
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// Prob0E returns the mask of states from which some adversary avoids the
// target forever, i.e. achieves P(eventually target) = 0. It is the
// greatest set X of non-target states such that every state of X is
// terminal or has a choice whose branches all stay in X.
func (m *MDP) Prob0E(target []bool) []bool {
	c := m.CSR()
	in := make([]bool, c.n)
	for s := range in {
		in[s] = !target[s]
	}
	for changed := true; changed; {
		changed = false
		for s := int32(0); int(s) < c.n; s++ {
			if !in[s] || c.terminal(int(s)) {
				continue
			}
			ok := false
			for ci := c.choiceRow[s]; ci < c.choiceRow[s+1] && !ok; ci++ {
				all := true
				for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
					if !in[c.col[bi]] {
						all = false
						break
					}
				}
				ok = all
			}
			if !ok {
				in[s] = false
				changed = true
			}
		}
	}
	return in
}

// MinProbOne returns the mask of states from which EVERY adversary reaches
// the target with probability one: the states that cannot reach, along a
// path avoiding the target, a state where some adversary then avoids the
// target forever. (A path through the target does not witness failure —
// the target has already been visited.) This is the qualitative progress
// property of Zuck and Pnueli that Section 1 of the paper refines into
// quantitative time bounds.
func (m *MDP) MinProbOne(target []bool) []bool {
	avoid := m.Prob0E(target)
	canFail := m.canReachAvoiding(avoid, target)
	out := make([]bool, m.NumStates)
	for s := range out {
		out[s] = target[s] || !canFail[s]
	}
	return out
}

// MaxProbPositive returns the mask of states from which some adversary
// reaches the target with positive probability: backward graph
// reachability of the target.
func (m *MDP) MaxProbPositive(target []bool) []bool {
	return m.canReachAvoiding(target, nil)
}
