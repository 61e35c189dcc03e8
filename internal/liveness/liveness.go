// Package liveness implements the qualitative baseline that the paper
// refines: Zuck–Pnueli-style almost-sure progress ("with probability 1,
// eventually ...") for randomized algorithms under all adversaries.
//
// Two flavors are provided. AlmostSure decides the property exactly by
// graph analysis of the MDP (complete but whole-space). VerifyRank checks
// a user-supplied progress-function certificate in the style of Zuck and
// Pnueli: a rank on states that every adversary choice has a chance to
// decrease. The certificate is sound but not complete; it mirrors how the
// original liveness proofs were written, and contrasts with the paper's
// quantitative method, which replaces "eventually, with probability 1" by
// explicit (t, p) bounds.
package liveness

import (
	"errors"
	"fmt"

	"repro/internal/mdp"
)

// Report summarizes an almost-sure reachability analysis.
type Report struct {
	// Holds reports whether every considered state reaches the target
	// with probability one under every adversary.
	Holds bool
	// Considered counts the states examined; Failing lists (up to a cap)
	// the indices of considered states where the property fails.
	Considered int
	Failing    []int
	// WitnessAvoid lists (up to a cap) states where some adversary avoids
	// the target forever — the end-component witnesses of failure.
	WitnessAvoid []int
}

const witnessCap = 16

// AlmostSure decides, for every state selected by from (nil means every
// state), whether the target is reached with probability one under every
// adversary.
func AlmostSure(m *mdp.MDP, target []bool, from []bool) (Report, error) {
	if len(target) != m.NumStates {
		return Report{}, fmt.Errorf("liveness: target mask has %d entries, want %d", len(target), m.NumStates)
	}
	if from != nil && len(from) != m.NumStates {
		return Report{}, fmt.Errorf("liveness: from mask has %d entries, want %d", len(from), m.NumStates)
	}
	one := m.MinProbOne(target)
	avoid := m.Prob0E(target)

	rep := Report{Holds: true}
	for s := 0; s < m.NumStates; s++ {
		if from != nil && !from[s] {
			continue
		}
		rep.Considered++
		if !one[s] {
			rep.Holds = false
			if len(rep.Failing) < witnessCap {
				rep.Failing = append(rep.Failing, s)
			}
		}
	}
	for s := 0; s < m.NumStates; s++ {
		if avoid[s] && len(rep.WitnessAvoid) < witnessCap {
			rep.WitnessAvoid = append(rep.WitnessAvoid, s)
		}
	}
	return rep, nil
}

// Errors of the certificate checker.
var (
	ErrRankShape    = errors.New("liveness: rank vector has the wrong length")
	ErrRankNegative = errors.New("liveness: rank must be nonnegative")
	ErrRankAtTarget = errors.New("liveness: target states must have rank zero")
	ErrRankZero     = errors.New("liveness: non-target state has rank zero")
	ErrRankStuck    = errors.New("liveness: choice with no rank-decreasing branch")
	ErrRankTerminal = errors.New("liveness: non-target terminal state")
)

// VerifyRank checks a progress-function certificate: rank must be zero
// exactly on target states, and every choice of every non-target state
// must have at least one branch of strictly smaller rank. If the check
// passes, the target is reached with probability one under every
// adversary (from every state), because from any state a run has, every
// |max rank| steps, probability at least delta^maxrank of riding
// descending branches to rank zero.
func VerifyRank(m *mdp.MDP, target []bool, rank []int) error {
	if len(rank) != m.NumStates || len(target) != m.NumStates {
		return ErrRankShape
	}
	for s := 0; s < m.NumStates; s++ {
		switch {
		case rank[s] < 0:
			return fmt.Errorf("%w: state %d has rank %d", ErrRankNegative, s, rank[s])
		case target[s] && rank[s] != 0:
			return fmt.Errorf("%w: state %d has rank %d", ErrRankAtTarget, s, rank[s])
		case !target[s] && rank[s] == 0:
			return fmt.Errorf("%w: state %d", ErrRankZero, s)
		}
		if target[s] {
			continue
		}
		if m.Terminal(s) {
			return fmt.Errorf("%w: state %d", ErrRankTerminal, s)
		}
		if ci, label := m.ChoiceWithout(s, func(to int) bool { return rank[to] < rank[s] }); ci >= 0 {
			return fmt.Errorf("%w: state %d choice %d (%s)", ErrRankStuck, s, ci, label)
		}
	}
	return nil
}

// SynthesizeRank attempts to build a rank certificate by backward
// induction: rank 0 on the target, then repeatedly rank r+1 for states all
// of whose choices have a branch into lower ranks. It returns ok = false
// when the construction gets stuck, which happens exactly when the
// almost-sure property fails... for the reachable fragment it covers. A
// synthesized rank always passes VerifyRank.
func SynthesizeRank(m *mdp.MDP, target []bool) (rank []int, ok bool) {
	const unranked = -1
	rank = make([]int, m.NumStates)
	for s := range rank {
		if target[s] {
			rank[s] = 0
		} else {
			rank[s] = unranked
		}
	}
	for r := 1; ; r++ {
		changed := false
		lower := func(to int) bool { return rank[to] != unranked && rank[to] < r }
		for s := 0; s < m.NumStates; s++ {
			if rank[s] != unranked || m.Terminal(s) {
				continue
			}
			if ci, _ := m.ChoiceWithout(s, lower); ci < 0 {
				rank[s] = r
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for s := range rank {
		if rank[s] == unranked {
			return nil, false
		}
	}
	return rank, true
}
