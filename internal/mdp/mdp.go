// Package mdp provides a finite Markov-decision-process substrate for
// worst-case analysis of probabilistic automata.
//
// A time-bound statement U --t,p-->_Advs U' (Definition 3.1 of Lynch,
// Saias and Segala, PODC 1994) quantifies over every adversary of a
// schema. For the digitized adversary classes built by package sched, the
// quantification becomes an optimization over the strategies of a finite
// MDP: the adversary picks a choice in every state, probabilistic
// transitions resolve the algorithm's coins, and time advances on choices
// marked as ticks. This package explores such MDPs on the fly from
// probabilistic automata (explore.go), stores them in compressed-sparse-row
// form (csr.go), and computes:
//
//   - exact (rational) minimum and maximum probabilities of reaching a
//     target within a tick horizon — the quantities compared against the
//     paper's p and t;
//   - qualitative reachability sets (probability 0 / probability 1 under
//     some or all adversaries), used by the expected-time solver and by
//     the qualitative progress baseline;
//   - maximum expected ticks to a target — the quantity compared against
//     the paper's expected-time bound of 63.
package mdp

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/prob"
)

// Tr is one probabilistic branch of a choice.
type Tr struct {
	// To is the index of the successor state.
	To int
	// P is the branch probability; the branches of a choice sum to one.
	P prob.Rat
}

// Choice is one nondeterministic alternative available to the adversary in
// a state, as passed to New.
type Choice struct {
	// Label names the choice for diagnostics and strategy extraction.
	Label string
	// Tick reports whether taking the choice advances time by one unit.
	Tick bool
	// Branches is the probability distribution over successors.
	Branches []Tr
}

// MDP is a finite Markov decision process in compressed-sparse-row form.
// States are dense indices 0..NumStates-1; a state with no choices is
// terminal. Production MDPs come from the on-the-fly explorer (Explore,
// ExplorePacked); small hand-built ones from New.
type MDP struct {
	NumStates int

	// Workers sets the parallelism of the sparse solvers: 0 means one
	// worker per available CPU. Any value produces bit-identical results;
	// the knob exists to bound scheduling overhead and for the
	// determinism tests.
	Workers int

	csr *CSR
}

// New builds an MDP from explicit per-state choices: choices[s] lists the
// alternatives of state s (possibly none). Branch targets must be in range
// and each choice's branch probabilities positive and summing to one.
func New(choices [][]Choice) (*MDP, error) {
	csr := csrFromChoices(len(choices), choices)
	if err := csr.validate(); err != nil {
		return nil, err
	}
	return &MDP{NumStates: csr.n, csr: csr}, nil
}

// CSR returns the sparse transition structure of the MDP. The result is
// immutable and shared.
func (m *MDP) CSR() *CSR { return m.csr }

// workers resolves the Workers field to a concrete worker count.
func (m *MDP) workers() int { return resolveWorkers(m.Workers) }

// Validate checks structural invariants: NumStates matching the
// transition structure, branch targets in range and branch probabilities
// summing to one per choice.
func (m *MDP) Validate() error {
	if m.NumStates != m.csr.n {
		return fmt.Errorf("mdp: NumStates %d != CSR states %d", m.NumStates, m.csr.n)
	}
	return m.csr.validate()
}

// Index maps the comparable states of a probabilistic automaton to dense
// MDP indices and back. The reverse map is built lazily on the first ID
// call: forward lookups (State, Where, Mask, Bits) are what the analyses
// use in bulk, and explorer-built indexes over millions of states should
// not pay for a map nobody queries.
type Index[S comparable] struct {
	states []S
	idOnce sync.Once
	id     map[S]int
}

// NewIndex indexes a state list in order; the slice is copied. Explored
// models get their index from Explore; this is for hand-built state
// spaces.
func NewIndex[S comparable](states []S) *Index[S] {
	return &Index[S]{states: append([]S(nil), states...)}
}

// Len returns the number of indexed states.
func (ix *Index[S]) Len() int { return len(ix.states) }

// State returns the automaton state with index i.
func (ix *Index[S]) State(i int) S { return ix.states[i] }

// ID returns the index of state s, if present.
func (ix *Index[S]) ID(s S) (int, bool) {
	ix.idOnce.Do(func() {
		ix.id = make(map[S]int, len(ix.states))
		for i, st := range ix.states {
			ix.id[st] = i
		}
	})
	i, ok := ix.id[s]
	return i, ok
}

// Where returns the indices of all states satisfying pred, in index order.
func (ix *Index[S]) Where(pred func(S) bool) []int {
	var out []int
	for i, s := range ix.states {
		if pred(s) {
			out = append(out, i)
		}
	}
	return out
}

// Mask returns the boolean mask of states satisfying pred.
func (ix *Index[S]) Mask(pred func(S) bool) []bool {
	mask := make([]bool, len(ix.states))
	for i, s := range ix.states {
		mask[i] = pred(s)
	}
	return mask
}

// Bits returns pred's membership bitset over the index: bit i&63 of word
// i>>6 is set iff pred(State(i)), and the bits past Len are zero. pred is
// evaluated once per state on up to workers goroutines (0 means one per
// CPU), each owning a contiguous range of words, so the result is
// identical for any worker count; pred must be safe for concurrent use.
func (ix *Index[S]) Bits(pred func(S) bool, workers int) []uint64 {
	n := len(ix.states)
	words := make([]uint64, (n+63)/64)
	parallelFor(resolveWorkers(workers), len(words), func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			base := w << 6
			var word uint64
			for i, s := range ix.states[base:min(base+64, n)] {
				if pred(s) {
					word |= 1 << i
				}
			}
			words[w] = word
		}
	})
	return words
}

// ErrBadDuration is returned when an automaton uses action durations other
// than zero and one; the tick-based MDP analyses require unit time steps.
var ErrBadDuration = errors.New("mdp: action duration must be 0 or 1")
