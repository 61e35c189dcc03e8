package core

import (
	"errors"
	"fmt"

	"repro/internal/mdp"
	"repro/internal/prob"
)

// ErrNonIntegerTime is returned when a statement's time bound is not a
// nonnegative integer; the digitized checker counts unit ticks.
var ErrNonIntegerTime = errors.New("core: time bound must be a nonnegative integer for the digitized checker")

// ErrEmptyFrom is returned when no reachable state lies in the statement's
// source set, making the check vacuous.
var ErrEmptyFrom = errors.New("core: no reachable state in the source set")

// CheckResult reports the outcome of checking a statement against a model.
type CheckResult[S comparable] struct {
	Stmt Statement[S]
	// Holds reports whether the measured worst case satisfies the bound.
	Holds bool
	// WorstProb is the minimum, over reachable states in From and over
	// all adversaries of the digitized schema, of the probability of
	// reaching To within the time bound. Holds iff WorstProb >= Stmt.Prob.
	WorstProb prob.Rat
	// WorstState is a source state attaining WorstProb.
	WorstState S
	// FromCount and ToCount are the sizes of the source and target sets
	// within the reachable space.
	FromCount, ToCount int
}

// String formats the result as one report line.
func (r CheckResult[S]) String() string {
	verdict := "HOLDS"
	if !r.Holds {
		verdict = "FAILS"
	}
	return fmt.Sprintf("%s  %s: worst-case P = %v (claimed ≥ %v) at %v [|From|=%d |To|=%d]",
		verdict, r.Stmt, r.WorstProb, r.Stmt.Prob, r.WorstState, r.FromCount, r.ToCount)
}

// intTime converts a rational time bound to an integer tick horizon.
func intTime(t prob.Rat) (int, error) {
	b := t.Big()
	if b.Sign() < 0 || !b.IsInt() {
		return 0, fmt.Errorf("%w: %v", ErrNonIntegerTime, t)
	}
	num := b.Num()
	if !num.IsInt64() || num.Int64() > int64(1<<30) {
		return 0, fmt.Errorf("core: time bound %v too large", t)
	}
	return int(num.Int64()), nil
}

// CheckStatement verifies a time-bound statement against an enumerated
// model: it computes, by exact value iteration, the minimum probability
// over all digitized adversaries of reaching the statement's target within
// its time bound, starting from the worst reachable state of its source
// set. The statement holds when that minimum is at least the claimed
// probability.
//
// The model's MDP and state index are produced by mdp.Explore (or
// ExplorePacked) from a sched.Product automaton; the statement's schema
// is only recorded, not interpreted — the digitization is fixed by the
// product. Sets materialised on ix are read from their bits; any other
// set is evaluated by its predicate.
func CheckStatement[S comparable](m *mdp.MDP, ix *mdp.Index[S], st Statement[S]) (CheckResult[S], error) {
	res := CheckResult[S]{Stmt: st}
	if err := st.Validate(); err != nil {
		return res, err
	}
	horizon, err := intTime(st.Time)
	if err != nil {
		return res, err
	}

	fromMask := st.From.Mask(ix)
	toMask := st.To.Mask(ix)
	for _, in := range fromMask {
		if in {
			res.FromCount++
		}
	}
	for _, in := range toMask {
		if in {
			res.ToCount++
		}
	}
	if res.FromCount == 0 {
		return res, ErrEmptyFrom
	}

	values, err := m.ReachWithinTicks(toMask, horizon, mdp.MinProb)
	if err != nil {
		return res, err
	}

	first := true
	for s, in := range fromMask {
		if !in {
			continue
		}
		if first || values[s].Less(res.WorstProb) {
			res.WorstProb = values[s]
			res.WorstState = ix.State(s)
			first = false
		}
	}
	res.Holds = !res.WorstProb.Less(st.Prob)
	return res, nil
}

// CheckAll checks a list of statements against the same model, stopping at
// the first error; failed statements (Holds == false) are not errors.
func CheckAll[S comparable](m *mdp.MDP, ix *mdp.Index[S], sts ...Statement[S]) ([]CheckResult[S], error) {
	out := make([]CheckResult[S], 0, len(sts))
	for _, st := range sts {
		r, err := CheckStatement(m, ix, st)
		if err != nil {
			return out, fmt.Errorf("checking %s: %w", st, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// CheckedPremise checks a statement against a model and, on success, wraps
// it as a premise whose note records the measured worst case.
func CheckedPremise[S comparable](m *mdp.MDP, ix *mdp.Index[S], st Statement[S], origin string) (*Proof[S], CheckResult[S], error) {
	r, err := CheckStatement(m, ix, st)
	if err != nil {
		return nil, r, err
	}
	p, err := PremiseFromResult(r, origin)
	return p, r, err
}

// PremiseFromResult wraps an already checked statement as a premise whose
// note records the measured worst case. It fails when the check did not
// hold, so callers that checked a chain once can build the proof from the
// results without re-solving.
func PremiseFromResult[S comparable](r CheckResult[S], origin string) (*Proof[S], error) {
	if !r.Holds {
		return nil, fmt.Errorf("core: statement %s fails: worst-case P = %v at %v", r.Stmt, r.WorstProb, r.WorstState)
	}
	return Premise(r.Stmt, fmt.Sprintf("%s; measured worst-case P = %v", origin, r.WorstProb))
}
