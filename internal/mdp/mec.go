package mdp

import "sort"

// MEC is a maximal end component: a set of states together with, for each
// state, the choices under which the component is closed. Inside an end
// component an adversary can keep the run forever with probability one;
// end components are the MDP analogue of the recurrent classes the
// Zuck–Pnueli liveness argument reasons about.
type MEC struct {
	// States lists the member states in increasing order.
	States []int
	// Choices maps each member state to the indices of its choices whose
	// branches all stay inside the component (indices local to the state,
	// in the state's choice order). Every member has at least one
	// such choice unless the component is the trivial singleton of a
	// terminal state (which is not reported).
	Choices map[int][]int
}

// MECs computes the maximal end components of the MDP with the standard
// iterative SCC-refinement algorithm, running directly on the CSR form:
// candidate membership and surviving choices live in bitsets (one bit per
// state / per global choice index), and the per-candidate SCC split is an
// iterative Tarjan over the restricted rows, with scratch arrays reset
// only on the touched candidate — no per-candidate sub-MDP is built.
// Singleton components without an internal choice (including terminal
// states) are not reported.
func (m *MDP) MECs() []MEC {
	c := m.CSR()
	n := c.n

	// active marks the global choice indices still usable.
	active := newBitset(c.NumChoices())
	for ci := int32(0); int(ci) < c.NumChoices(); ci++ {
		active.set(ci)
	}

	// Scratch shared by every candidate; member and the Tarjan state are
	// cleaned up per candidate (O(candidate) work, not O(n)).
	member := newBitset(n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := newBitset(n)

	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	work := [][]int32{all}

	var out []MEC
	for len(work) > 0 {
		cand := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range cand {
			member.set(s)
		}

		// Restrict choices to those staying inside the candidate set;
		// states left with no choice leave the candidate set. Iterate to a
		// fixpoint.
		for changed := true; changed; {
			changed = false
			for _, s := range cand {
				if !member.get(s) {
					continue
				}
				hasChoice := false
				for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
					if !active.get(ci) {
						continue
					}
					stays := true
					for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
						if !member.get(c.col[bi]) {
							stays = false
							break
						}
					}
					if stays {
						hasChoice = true
					} else {
						active.clear(ci)
						changed = true
					}
				}
				if !hasChoice {
					member.clear(s)
					changed = true
				}
			}
		}

		survivors := cand[:0]
		for _, s := range cand {
			if member.get(s) {
				survivors = append(survivors, s)
			}
		}
		if len(survivors) == 0 {
			continue
		}

		comps := c.sccRestricted(survivors, member, active, index, low, onStack)
		for _, s := range survivors {
			member.clear(s)
		}

		if len(comps) == 1 && len(comps[0]) == len(survivors) {
			// The candidate is a single SCC with internal choices
			// everywhere: a maximal end component. survivors is in
			// increasing state order — refinement filters in place and
			// every candidate list is kept sorted.
			mec := MEC{States: make([]int, 0, len(survivors)), Choices: make(map[int][]int, len(survivors))}
			for _, s := range survivors {
				mec.States = append(mec.States, int(s))
				cLo := c.choiceRow[s]
				for ci := cLo; ci < c.choiceRow[s+1]; ci++ {
					if active.get(ci) {
						mec.Choices[int(s)] = append(mec.Choices[int(s)], int(ci-cLo))
					}
				}
			}
			out = append(out, mec)
			continue
		}
		work = append(work, comps...)
	}
	return out
}

// sccRestricted computes the strongly connected components of the
// member-induced subgraph using only active choices, dropping singleton
// components without a self-loop. index/low/onStack are caller scratch;
// index must be reset to -1 for every state in cand (done here on entry),
// and onStack is left fully cleared on return. Component state lists are
// returned in increasing state order.
func (c *CSR) sccRestricted(cand []int32, member, active bitset, index, low []int32, onStack bitset) [][]int32 {
	for _, s := range cand {
		index[s] = -1
	}

	var (
		counter int32
		tarjan  []int32
		comps   [][]int32
	)
	// A frame walks the state's active choices (ci) and the current
	// choice's branches (bi).
	type frame struct {
		v      int32
		ci, bi int32
	}
	selfLoop := func(s int32) bool {
		for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
			if !active.get(ci) {
				continue
			}
			for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
				if c.col[bi] == s {
					return true
				}
			}
		}
		return false
	}
	// nextEdge advances the frame to its next restricted edge target, or
	// returns -1 when the state's edges are exhausted.
	nextEdge := func(f *frame) int32 {
		for f.ci < c.choiceRow[f.v+1] {
			if !active.get(f.ci) {
				f.ci++
				f.bi = -1
				continue
			}
			if f.bi < 0 {
				f.bi = c.branchRow[f.ci]
			}
			if f.bi < c.branchRow[f.ci+1] {
				w := c.col[f.bi]
				f.bi++
				if member.get(w) {
					return w
				}
				continue
			}
			f.ci++
			f.bi = -1
		}
		return -1
	}

	for _, root := range cand {
		if index[root] != -1 {
			continue
		}
		stack := []frame{{v: root, ci: c.choiceRow[root], bi: -1}}
		index[root] = counter
		low[root] = counter
		counter++
		tarjan = append(tarjan, root)
		onStack.set(root)

		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if w := nextEdge(f); w >= 0 {
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					tarjan = append(tarjan, w)
					onStack.set(w)
					stack = append(stack, frame{v: w, ci: c.choiceRow[w], bi: -1})
				} else if onStack.get(w) && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				parent := stack[len(stack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int32
				for {
					w := tarjan[len(tarjan)-1]
					tarjan = tarjan[:len(tarjan)-1]
					onStack.clear(w)
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) == 1 && !selfLoop(comp[0]) {
					continue
				}
				// Tarjan pops components in reverse discovery order; sort
				// members ascending so refinement keeps candidate lists
				// ordered (MEC.States relies on it).
				sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
				comps = append(comps, comp)
			}
		}
	}
	return comps
}
