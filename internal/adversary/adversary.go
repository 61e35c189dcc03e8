// Package adversary models the entities that resolve nondeterminism in a
// probabilistic automaton (Definitions 2.2, 2.6 and 3.3 of Lynch, Saias
// and Segala, PODC 1994).
//
// An Adversary maps a finite execution fragment to one of the steps
// enabled in its last state, or to nothing (the adversary may halt the
// system). An adversary schema is a set of adversaries, usually described
// by a predicate; the key property required by the composition theorem
// (Theorem 3.4) is execution closure: the schema must contain, for every
// adversary A and past fragment alpha, an adversary A' behaving like A
// with the past alpha pre-pended. Execution closure is a semantic property
// of the whole schema; the package lets schemas declare it and provides a
// randomized spot-check used in tests.
package adversary

import (
	"fmt"

	"repro/internal/pa"
)

// Adversary resolves nondeterministic choices of a probabilistic automaton
// (Definition 2.2). Given the finite execution fragment observed so far,
// Step returns the step the automaton is to perform next; ok = false means
// the adversary returns "nothing" and the execution stops.
//
// The adversary sees the complete past, including the outcomes of earlier
// random choices; weaker adversaries simply ignore parts of the fragment.
type Adversary[S comparable] interface {
	Step(frag *pa.Fragment[S]) (step pa.Step[S], ok bool)
}

// Func adapts a plain function to the Adversary interface.
type Func[S comparable] func(frag *pa.Fragment[S]) (pa.Step[S], bool)

// Step implements Adversary.
func (f Func[S]) Step(frag *pa.Fragment[S]) (pa.Step[S], bool) { return f(frag) }

var _ Adversary[int] = (Func[int])(nil)

// Halt is the adversary that always returns nothing, stopping the system
// immediately.
func Halt[S comparable]() Adversary[S] {
	return Func[S](func(*pa.Fragment[S]) (pa.Step[S], bool) {
		return pa.Step[S]{}, false
	})
}

// FirstEnabled is the memoryless adversary that always chooses the first
// step enabled in the current state, in the automaton's enumeration order.
func FirstEnabled[S comparable](m *pa.Automaton[S]) Adversary[S] {
	return Memoryless(m, func(S, []pa.Step[S]) int { return 0 })
}

// Memoryless builds an adversary that chooses among the enabled steps
// looking only at the current state: choose returns the index of the step
// to take from the given enabled list, or a negative value to halt.
func Memoryless[S comparable](m *pa.Automaton[S], choose func(s S, enabled []pa.Step[S]) int) Adversary[S] {
	return Func[S](func(frag *pa.Fragment[S]) (pa.Step[S], bool) {
		enabled := m.Steps(frag.Last())
		if len(enabled) == 0 {
			return pa.Step[S]{}, false
		}
		i := choose(frag.Last(), enabled)
		if i < 0 || i >= len(enabled) {
			return pa.Step[S]{}, false
		}
		return enabled[i], true
	})
}

// HistoryDependent builds an adversary with complete knowledge of the past:
// choose sees the whole fragment and the enabled steps, and returns the
// index of the chosen step or a negative value to halt. This is the
// adversary class the paper's Lehmann–Rabin analysis must defeat.
func HistoryDependent[S comparable](m *pa.Automaton[S], choose func(frag *pa.Fragment[S], enabled []pa.Step[S]) int) Adversary[S] {
	return Func[S](func(frag *pa.Fragment[S]) (pa.Step[S], bool) {
		enabled := m.Steps(frag.Last())
		if len(enabled) == 0 {
			return pa.Step[S]{}, false
		}
		i := choose(frag, enabled)
		if i < 0 || i >= len(enabled) {
			return pa.Step[S]{}, false
		}
		return enabled[i], true
	})
}

// Oblivious builds an adversary that follows a fixed script of step
// indices, ignoring everything about the execution except how many steps
// have been taken so far. After the script is exhausted the adversary
// halts. Oblivious adversaries model schedulers fixed before the run, the
// weakest class discussed in the paper's introduction.
func Oblivious[S comparable](m *pa.Automaton[S], script []int) Adversary[S] {
	scriptCopy := append([]int(nil), script...)
	return Func[S](func(frag *pa.Fragment[S]) (pa.Step[S], bool) {
		n := frag.Len()
		if n >= len(scriptCopy) {
			return pa.Step[S]{}, false
		}
		enabled := m.Steps(frag.Last())
		i := scriptCopy[n]
		if i < 0 || i >= len(enabled) {
			return pa.Step[S]{}, false
		}
		return enabled[i], true
	})
}

// WithPrefix returns the adversary A' whose existence execution closure
// (Definition 3.3) demands: A'(alpha') = A(prefix ⌢ alpha') for fragments
// alpha' starting in lstate(prefix). It errors at call time (by halting)
// if alpha' does not start where prefix ends.
func WithPrefix[S comparable](a Adversary[S], prefix *pa.Fragment[S]) Adversary[S] {
	return Func[S](func(frag *pa.Fragment[S]) (pa.Step[S], bool) {
		joined, err := prefix.Concat(frag)
		if err != nil {
			return pa.Step[S]{}, false
		}
		return a.Step(joined)
	})
}

// Validate checks that the step the adversary returns for frag is actually
// one of the steps enabled in lstate(frag), which Definition 2.2 requires.
func Validate[S comparable](m *pa.Automaton[S], a Adversary[S], frag *pa.Fragment[S]) error {
	step, ok := a.Step(frag)
	if !ok {
		return nil
	}
	for _, enabled := range m.Steps(frag.Last()) {
		if enabled.Action == step.Action && enabled.Next.Equal(step.Next) {
			return nil
		}
	}
	return fmt.Errorf("adversary: step %q not enabled in state %v", step.Action, frag.Last())
}
