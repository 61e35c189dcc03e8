package prob

// Frozen is a pre-resolved sampler for a Dist: the cumulative float64
// weights are computed once, at freeze time, so each draw costs a short
// scan over a float slice — no rational arithmetic per draw.
// It is the sampler of the Monte Carlo hot path (internal/sim's
// compiled-model layer), where the same distribution is sampled
// millions of times.
//
// Pick is bit-identical to Dist.Pick for every r in [0, 1): the
// cumulative weights are the exact same weight[i].Float64() values,
// accumulated in the same support order with the same float64 additions
// Dist.Pick performs per draw, and the scan makes the same comparisons
// in the same order. A seeded run therefore produces identical results
// whether its distributions are frozen or not.
//
// A Frozen is immutable after construction and safe for concurrent use.
// The zero value is an empty sampler (matching the zero Dist); like
// Dist.Pick, its Pick panics.
type Frozen[T comparable] struct {
	support []T
	cum     []float64
}

// Freeze pre-resolves d into a Frozen sampler. The support slice is
// shared with d (both are immutable).
func Freeze[T comparable](d Dist[T]) Frozen[T] {
	f := Frozen[T]{support: d.support}
	if len(d.support) == 0 {
		return f
	}
	f.cum = make([]float64, len(d.support))
	acc := 0.0
	for i, w := range d.weight {
		// Exactly Dist.Pick's accumulation: the same Float64 conversions
		// added in the same order, so every rounding decision matches.
		acc += w.Float64()
		f.cum[i] = acc
	}
	return f
}

// Len returns the size of the support.
func (f Frozen[T]) Len() int { return len(f.support) }

// Pick selects an outcome using r, a number in [0, 1). It returns
// exactly what Dist.Pick on the original distribution returns for the
// same r, and panics on an empty sampler just as Dist.Pick does.
func (f Frozen[T]) Pick(r float64) T { return f.support[f.PickIndex(r)] }

// PickIndex is Pick returning the support index of the outcome instead
// of the outcome itself, for callers that keep side tables parallel to
// the support (At recovers the outcome). Same r, same draw as Pick.
func (f Frozen[T]) PickIndex(r float64) int {
	n := len(f.support)
	if n == 0 {
		panic("prob: Pick on empty distribution")
	}
	if n == 1 {
		// Dist.Pick returns the sole support element whether or not
		// r < weight: it is both the first hit and the fallback.
		return 0
	}
	for i, c := range f.cum {
		if r < c {
			return i
		}
	}
	return n - 1
}

// At returns the i-th support element, in the order PickIndex indexes.
func (f Frozen[T]) At(i int) T { return f.support[i] }
