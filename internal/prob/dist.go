package prob

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrNotADistribution is returned when weights are negative or do not sum
// to one.
var ErrNotADistribution = errors.New("prob: weights do not form a probability distribution")

// Dist is a finite discrete probability distribution over values of type T.
// It corresponds to the probability spaces (Ω, F, P) of Definition 2.1 of
// the paper, where Ω is finite and F = 2^Ω.
//
// A Dist is immutable after construction. The zero value is an empty
// distribution, which is not a valid probability space; distributions are
// built with NewDist, Point, Uniform or Weighted.
//
// Weights live in a slice aligned with the support, with no per-value
// map: most distributions in the framework have a handful of outcomes,
// where a linear scan beats hashing and the Dist costs two allocations.
// Construction dedupes by that same scan, so building from n outcomes
// costs O(n·Len()).
type Dist[T comparable] struct {
	support []T
	weight  []Rat // weight[i] is the probability of support[i]
}

// distBuilder accumulates outcomes into a Dist, merging duplicate values
// and keeping first-seen support order.
type distBuilder[T comparable] struct {
	d Dist[T]
}

// newDistBuilder returns a builder sized for up to n outcomes.
func newDistBuilder[T comparable](n int) distBuilder[T] {
	return distBuilder[T]{d: Dist[T]{support: make([]T, 0, n), weight: make([]Rat, 0, n)}}
}

// add adds p to v's weight, appending v to the support when it is new.
func (b *distBuilder[T]) add(v T, p Rat) {
	if i := b.d.index(v); i >= 0 {
		b.d.weight[i] = b.d.weight[i].Add(p)
		return
	}
	b.d.support = append(b.d.support, v)
	b.d.weight = append(b.d.weight, p)
}

// Outcome pairs a value with its probability.
type Outcome[T comparable] struct {
	Value T
	Prob  Rat
}

// NewDist builds a distribution from explicit outcomes. Outcomes with zero
// probability are dropped; duplicate values have their probabilities added.
// It returns ErrNotADistribution when any weight is negative or the total
// is not exactly one.
func NewDist[T comparable](outcomes ...Outcome[T]) (Dist[T], error) {
	b := newDistBuilder[T](len(outcomes))
	total := Zero()
	for _, o := range outcomes {
		if o.Prob.Sign() < 0 {
			return Dist[T]{}, fmt.Errorf("%w: negative weight %v", ErrNotADistribution, o.Prob)
		}
		if o.Prob.IsZero() {
			continue
		}
		b.add(o.Value, o.Prob)
		total = total.Add(o.Prob)
	}
	if !total.IsOne() {
		return Dist[T]{}, fmt.Errorf("%w: total weight %v", ErrNotADistribution, total)
	}
	return b.d, nil
}

// MustDist is like NewDist but panics on invalid input. It is meant for
// statically-known distributions in models, tests and examples.
func MustDist[T comparable](outcomes ...Outcome[T]) Dist[T] {
	d, err := NewDist(outcomes...)
	if err != nil {
		panic(err)
	}
	return d
}

// pointWeight is the weight slice of every Point distribution; Dists
// never mutate their weights, so one slice serves them all.
var pointWeight = []Rat{oneRat}

// Point returns the Dirac distribution concentrated on v.
func Point[T comparable](v T) Dist[T] {
	return Dist[T]{support: []T{v}, weight: pointWeight}
}

// Uniform returns the uniform distribution over the given values. The
// values must be distinct and nonempty; otherwise an error is returned.
func Uniform[T comparable](values ...T) (Dist[T], error) {
	if len(values) == 0 {
		return Dist[T]{}, fmt.Errorf("%w: empty support", ErrNotADistribution)
	}
	p := One().Div(FromInt(int64(len(values))))
	b := newDistBuilder[T](len(values))
	for _, v := range values {
		if b.d.index(v) >= 0 {
			return Dist[T]{}, fmt.Errorf("prob: Uniform with duplicate value %v", v)
		}
		b.add(v, p)
	}
	return b.d, nil
}

// MustUniform is like Uniform but panics on invalid input.
func MustUniform[T comparable](values ...T) Dist[T] {
	d, err := Uniform(values...)
	if err != nil {
		panic(err)
	}
	return d
}

// FlipRat returns the two-point distribution assigning p to heads and 1-p
// to tails.
func FlipRat[T comparable](heads T, p Rat, tails T) (Dist[T], error) {
	return NewDist(
		Outcome[T]{Value: heads, Prob: p},
		Outcome[T]{Value: tails, Prob: One().Sub(p)},
	)
}

// Support returns the support of d in insertion order. The caller must not
// modify the returned slice.
func (d Dist[T]) Support() []T { return d.support }

// Len returns the size of the support.
func (d Dist[T]) Len() int { return len(d.support) }

// IsValid reports whether d is a well-formed distribution (nonempty support
// summing to one). The zero Dist is not valid.
func (d Dist[T]) IsValid() bool {
	if len(d.support) == 0 {
		return false
	}
	total := Zero()
	for _, w := range d.weight {
		if w.Sign() <= 0 {
			return false
		}
		total = total.Add(w)
	}
	return total.IsOne()
}

// index returns v's position in the support, or -1.
func (d Dist[T]) index(v T) int {
	for i, u := range d.support {
		if u == v {
			return i
		}
	}
	return -1
}

// P returns the probability of v, which is zero when v is outside the
// support. It scans the support, so it costs O(Len()).
func (d Dist[T]) P(v T) Rat {
	if i := d.index(v); i >= 0 {
		return d.weight[i]
	}
	return Rat{}
}

// Equal reports whether d and e are the same distribution: identical
// supports with exactly equal probabilities, in any order. It compares
// pairwise in support order and scans e only for values whose positions
// differ, so it costs O(Len()) when both list the support in the same
// order, as distributions built from the same outcomes do.
func (d Dist[T]) Equal(e Dist[T]) bool {
	if len(d.support) != len(e.support) {
		return false
	}
	for i, v := range d.support {
		w := d.weight[i]
		if e.support[i] == v {
			if !w.Equal(e.weight[i]) {
				return false
			}
		} else if !w.Equal(e.P(v)) {
			// Weights are positive, so a match also puts v in e's support;
			// equal sizes then make the supports equal.
			return false
		}
	}
	return true
}

// IsPoint reports whether d is a Dirac distribution, and if so on which
// value.
func (d Dist[T]) IsPoint() (T, bool) {
	if len(d.support) == 1 {
		return d.support[0], true
	}
	var zero T
	return zero, false
}

// ProbOf returns the total probability of the event described by the
// predicate, i.e. P[{v : pred(v)}].
func (d Dist[T]) ProbOf(pred func(T) bool) Rat {
	total := Zero()
	for i, v := range d.support {
		if pred(v) {
			total = total.Add(d.weight[i])
		}
	}
	return total
}

// Outcomes returns all outcomes of d in support order.
func (d Dist[T]) Outcomes() []Outcome[T] {
	out := make([]Outcome[T], len(d.support))
	for i, v := range d.support {
		out[i] = Outcome[T]{Value: v, Prob: d.weight[i]}
	}
	return out
}

// Map applies f to every value in the support, merging values that f
// identifies. The result is always a valid distribution when d is.
func MapDist[T, U comparable](d Dist[T], f func(T) U) Dist[U] {
	b := newDistBuilder[U](len(d.support))
	for i, v := range d.support {
		b.add(f(v), d.weight[i])
	}
	return b.d
}

// Product returns the independent product distribution of a and b.
func Product[T, U comparable](a Dist[T], b Dist[U]) Dist[Pair[T, U]] {
	// Distinct supports make every pair distinct: no dedupe needed.
	n := len(a.support) * len(b.support)
	out := Dist[Pair[T, U]]{support: make([]Pair[T, U], 0, n), weight: make([]Rat, 0, n)}
	for i, v := range a.support {
		for j, w := range b.support {
			out.support = append(out.support, Pair[T, U]{First: v, Second: w})
			out.weight = append(out.weight, a.weight[i].Mul(b.weight[j]))
		}
	}
	return out
}

// Pair is an ordered pair, used by Product.
type Pair[T, U comparable] struct {
	First  T
	Second U
}

// Pick selects an outcome of d using r, a number in [0, 1), by walking the
// support in order and accumulating weights. It is the bridge between the
// exact framework and Monte Carlo simulation: callers draw r from their own
// random source.
func (d Dist[T]) Pick(r float64) T {
	if len(d.support) == 0 {
		panic("prob: Pick on empty distribution")
	}
	acc := 0.0
	for i, v := range d.support {
		acc += d.weight[i].Float64()
		if r < acc {
			return v
		}
	}
	return d.support[len(d.support)-1]
}

// String formats the distribution as "{v1:p1, v2:p2, ...}" with values
// ordered by their formatted representation, so the output is stable across
// runs for any comparable type.
func (d Dist[T]) String() string {
	parts := make([]string, len(d.support))
	for i, v := range d.support {
		parts[i] = fmt.Sprintf("%v:%v", v, d.weight[i])
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
