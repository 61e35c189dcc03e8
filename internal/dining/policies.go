package dining

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// This file provides Lehmann–Rabin-specific adversaries for the Monte
// Carlo engine, complementing the generic sim policies. The Spiteful
// policy is a dense-time adversary with complete knowledge of the past
// (including coin outcomes) that actively manufactures second-resource
// conflicts — the attack surface Example 4.1 of the paper warns about.

// AllAt returns the state with every process at the given program counter
// (which must not require a direction); it panics on invalid input. AllAt(F)
// is the canonical worst-ish start for expected-time measurements: the
// whole ring competes.
func AllAt(n int, pc PC) State {
	locals := make([]Local, n)
	for i := range locals {
		locals[i] = Local{PC: pc}
	}
	return MustState(locals...)
}

// Policy resolves an adversary name to a factory of fresh policy
// instances: slowest, random, spiteful, or paced:<alpha> with alpha in
// (0, 1]. It is the one name table behind every dining front end
// (lrsim -policies, lrtrace -policy, and fabric job specs), so a name
// means the same adversary everywhere.
func Policy(name string) (func() sim.Policy[State], error) {
	switch {
	case name == "slowest":
		return func() sim.Policy[State] { return KeepTrying(sim.Slowest[State]()) }, nil
	case name == "random":
		return func() sim.Policy[State] { return KeepTrying(sim.Random[State](0.5)) }, nil
	case name == "spiteful":
		return Spiteful, nil
	case strings.HasPrefix(name, "paced:"):
		alpha, err := strconv.ParseFloat(strings.TrimPrefix(name, "paced:"), 64)
		if err != nil || !(alpha > 0 && alpha <= 1) {
			return nil, fmt.Errorf("dining: bad paced alpha in %q (want paced:<alpha>, 0 < alpha <= 1)", name)
		}
		return func() sim.Policy[State] { return KeepTrying(sim.Paced[State](alpha)) }, nil
	default:
		return nil, fmt.Errorf("dining: unknown policy %q (want slowest, random, spiteful or paced:<alpha>)", name)
	}
}

// KeepTrying wraps a policy so that any process sitting in its remainder
// region is immediately sent into its trying region (the user move try_i
// fires at once), keeping the ring maximally contended. Exits are never
// issued, matching the worst case for time-to-first-C measurements.
func KeepTrying(inner sim.Policy[State]) sim.Policy[State] {
	return sim.PolicyFunc[State](func(v *sim.View[State], rng *rand.Rand) (sim.Choice, bool) {
		for _, j := range v.UserMovers {
			if v.State.Local(j).PC == R {
				return sim.Choice{Proc: j, User: true, At: v.Now}, true
			}
		}
		return inner.Choose(v, rng)
	})
}

// Spiteful is a history-aware malicious scheduler. Its heuristics:
//
//   - rush a waiting process whose grab steals the second resource of a
//     committed neighbour (forcing that neighbour's check to fail);
//   - rush a second-resource check that is guaranteed to fail right now;
//   - rush coin flips to learn outcomes early;
//   - delay everything else (checks that would succeed, drops that would
//     free resources, crit announcements) to the last legal moment.
//
// It cannot defeat the algorithm — the paper proves constant expected
// progress time against every Unit-Time adversary — but it measurably
// slows it compared to a random or round-robin environment, which is
// exactly what experiment E12 quantifies.
func Spiteful() sim.Policy[State] {
	return sim.PolicyFunc[State](func(v *sim.View[State], _ *rand.Rand) (sim.Choice, bool) {
		s := v.State
		// Keep every process in the competition.
		for _, j := range v.UserMovers {
			if s.Local(j).PC == R {
				return sim.Choice{Proc: j, User: true, At: v.Now}, true
			}
		}
		if len(v.Ready) == 0 {
			return sim.Choice{}, false
		}

		best, bestScore := -1, 0
		for _, i := range v.Ready {
			if sc := spiteScore(s, i); sc > bestScore {
				best, bestScore = i, sc
			}
		}
		if best >= 0 {
			// Sabotage at the last legal instant: the event still orders
			// before any forced step, and the clock loses a full window.
			return sim.Choice{Proc: best, At: v.DeadlineMin}, true
		}

		// Nothing to sabotage: behave like the slowest legal scheduler.
		proc := v.Ready[0]
		for _, i := range v.Ready[1:] {
			if v.Deadline[i] < v.Deadline[proc] {
				proc = i
			}
		}
		return sim.Choice{Proc: proc, At: v.DeadlineMin}, true
	})
}

// spiteScore rates how much stepping process i right now hurts progress;
// zero means "no benefit, delay it".
func spiteScore(s State, i int) int {
	l := s.Local(i)
	switch l.PC {
	case W:
		r := s.resOnSide(i, l.U)
		if s.ResTaken(r) {
			return 0 // blocked: stepping is a self-loop, pointless now
		}
		// Grabbing r: does some committed neighbour need r as its second
		// resource?
		if secondResourceNeededBy(s, r) {
			return 3
		}
		return 0
	case S:
		// Check the second resource only while the check is doomed.
		if s.ResTaken(s.resOnSide(i, l.U.Opp())) {
			return 2
		}
		return 0
	case F:
		// Learn coin outcomes as early as possible.
		return 1
	default:
		// D (frees a resource), P (enters the pre-critical region), exit
		// steps: all only help progress; delay them.
		return 0
	}
}

// secondResourceNeededBy reports whether resource r is the second resource
// of some committed process (in W or S) of s.
func secondResourceNeededBy(s State, r int) bool {
	for j := 0; j < s.N(); j++ {
		l := s.Local(j)
		if l.PC != W && l.PC != S {
			continue
		}
		if s.resOnSide(j, l.U.Opp()) == s.wrap(r) {
			return true
		}
	}
	return false
}
