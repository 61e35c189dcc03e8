// Package core implements the proof method of Lynch, Saias and Segala,
// "Proving Time Bounds for Randomized Distributed Algorithms" (PODC 1994):
// time-bounded progress statements U --t,p--> U' (Definition 3.1), the
// union-weakening rule (Proposition 3.2), the composition theorem
// (Theorem 3.4) with its execution-closure side condition, derived
// relaxation rules, machine-checked proof trees, and the expected-time
// recurrence analysis of Section 6.2.
//
// Statements can be taken as premises (with provenance), derived from
// other statements by the paper's rules, and checked against a model: the
// digitized worst-case checker computes, by exact value iteration on the
// scheduler-product MDP, the minimum probability over all adversaries of
// reaching the target set within the time bound, from the worst reachable
// source state.
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/mdp"
)

// Set is a named set of states. Pred is its definition; a set returned by
// Universe.Materialize also carries its membership bits over that
// universe's index, which the universe's relations and the checkers read
// instead of calling Pred again. Names follow the paper's conventions
// ("T", "RT", "F∪G∪P", ...) and appear in statements and proof trees.
type Set[S comparable] struct {
	// Name renders the set in statements.
	Name string
	// Pred reports membership.
	Pred func(S) bool

	bits *members[S]
}

// members is a set's membership bitset over one index, in the layout of
// mdp.Index.Bits.
type members[S comparable] struct {
	ix    *mdp.Index[S]
	words []uint64
}

// NewSet builds a named set.
func NewSet[S comparable](name string, pred func(S) bool) Set[S] {
	return Set[S]{Name: name, Pred: pred}
}

// Contains reports membership of s, treating a nil predicate as empty.
func (u Set[S]) Contains(s S) bool { return u.Pred != nil && u.Pred(s) }

// Mask returns the set's membership over ix as the boolean mask the mdp
// solvers take: unpacked from its bits when it was materialised on ix,
// otherwise ix.Mask of its predicate.
func (u Set[S]) Mask(ix *mdp.Index[S]) []bool {
	if u.bits == nil || u.bits.ix != ix {
		return ix.Mask(u.Contains)
	}
	mask := make([]bool, ix.Len())
	for i := range mask {
		mask[i] = u.bits.words[i>>6]&(1<<(i&63)) != 0
	}
	return mask
}

// Union returns the union of the given sets, named "A∪B∪...". When every
// operand was materialised on the same index, so is the union: its bits
// are the operands' bits ORed.
func Union[S comparable](sets ...Set[S]) Set[S] {
	names := make([]string, len(sets))
	preds := make([]func(S) bool, len(sets))
	for i, set := range sets {
		names[i] = set.Name
		preds[i] = set.Pred
	}
	return Set[S]{
		Name: strings.Join(names, "∪"),
		Pred: func(s S) bool {
			for _, p := range preds {
				if p != nil && p(s) {
					return true
				}
			}
			return false
		},
		bits: unionBits(sets),
	}
}

// unionBits ORs the operands' bits, or returns nil unless every operand
// was materialised on the same index.
func unionBits[S comparable](sets []Set[S]) *members[S] {
	if len(sets) == 0 || sets[0].bits == nil {
		return nil
	}
	ix := sets[0].bits.ix
	for _, set := range sets[1:] {
		if set.bits == nil || set.bits.ix != ix {
			return nil
		}
	}
	words := slices.Clone(sets[0].bits.words)
	for _, set := range sets[1:] {
		for i, w := range set.bits.words {
			words[i] |= w
		}
	}
	return &members[S]{ix: ix, words: words}
}

// Universe is an explicit finite collection of states over which set
// relations (subset, equality) are decided extensionally, as word loops
// over membership bitsets. The worst-case checker uses the reachable
// states of the model under analysis, matching the paper's convention
// that state sets are sets of reachable states.
type Universe[S comparable] struct {
	ix      *mdp.Index[S]
	workers int
}

// NewUniverse builds a universe from a state list; the slice is copied.
func NewUniverse[S comparable](states []S) *Universe[S] {
	return &Universe[S]{ix: mdp.NewIndex(states), workers: 1}
}

// IndexUniverse is the universe of an explored model's states, sharing
// its index. Sets are materialised on up to workers goroutines (0 means
// one per CPU), so their predicates must be safe for concurrent use; any
// worker count yields the same bits.
func IndexUniverse[S comparable](ix *mdp.Index[S], workers int) *Universe[S] {
	return &Universe[S]{ix: ix, workers: workers}
}

// Len returns the number of states in the universe.
func (u *Universe[S]) Len() int { return u.ix.Len() }

// Materialize returns the set carrying its membership bits over the
// universe, evaluating its predicate once per state.
func (u *Universe[S]) Materialize(set Set[S]) Set[S] {
	set.bits = &members[S]{ix: u.ix, words: u.words(set)}
	return set
}

// words returns the set's membership bits over the universe: its own when
// it was materialised here, otherwise evaluated now.
func (u *Universe[S]) words(set Set[S]) []uint64 {
	if set.bits != nil && set.bits.ix == u.ix {
		return set.bits.words
	}
	return u.ix.Bits(set.Contains, u.workers)
}

// Subset reports whether a ⊆ b over the universe.
func (u *Universe[S]) Subset(a, b Set[S]) bool {
	_, found := u.Witness(a, b)
	return !found
}

// Equal reports whether a and b contain the same universe states.
func (u *Universe[S]) Equal(a, b Set[S]) bool {
	return slices.Equal(u.words(a), u.words(b))
}

// Count returns how many universe states are in the set.
func (u *Universe[S]) Count(a Set[S]) int {
	n := 0
	for _, w := range u.words(a) {
		n += bits.OnesCount64(w)
	}
	return n
}

// Witness returns the first universe state in a but not in b, for
// diagnostics.
func (u *Universe[S]) Witness(a, b Set[S]) (S, bool) {
	wb := u.words(b)
	for i, w := range u.words(a) {
		if d := w &^ wb[i]; d != 0 {
			return u.ix.State(i<<6 + bits.TrailingZeros64(d)), true
		}
	}
	var zero S
	return zero, false
}

// SchemaInfo carries the adversary-schema identity of a statement and the
// execution-closure property that Theorem 3.4 requires. Statements may be
// composed only when their schemas agree and are execution closed.
type SchemaInfo struct {
	// Name identifies the schema, e.g. "Unit-Time(k=1)".
	Name string
	// ExecutionClosed declares Definition 3.3 for the schema.
	ExecutionClosed bool
}

// String returns the schema name.
func (si SchemaInfo) String() string { return si.Name }

// UnitTimeSchema describes the digitized Unit-Time schema with the given
// steps-per-window bound. The schema is execution closed: the paper argues
// this for Unit-Time in Section 6.2 (knowing a longer past only reinforces
// the constraint that each ready process is scheduled within time 1), and
// the digitized version inherits the argument because all scheduling
// obligations are part of the product state.
func UnitTimeSchema(stepsPerWindow int) SchemaInfo {
	return SchemaInfo{
		Name:            fmt.Sprintf("Unit-Time(k=%d)", stepsPerWindow),
		ExecutionClosed: true,
	}
}
