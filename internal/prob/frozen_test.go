package prob

import (
	"math"
	"math/rand"
	"testing"
)

// TestFrozenBitIdentical is the bit-identity property behind the compiled
// simulation engine: Frozen.Pick must return exactly what Dist.Pick
// returns for every r, including draws that land on accumulated-rounding
// boundaries.
func TestFrozenBitIdentical(t *testing.T) {
	dists := []Dist[int]{
		Point(7),
		MustUniform(1, 2, 3),
		MustUniform(0, 1, 2, 3, 4, 5, 6),
		MustDist(
			Outcome[int]{Value: 10, Prob: NewRat(1, 3)},
			Outcome[int]{Value: 20, Prob: NewRat(1, 6)},
			Outcome[int]{Value: 30, Prob: NewRat(1, 2)},
		),
		// Weights whose float64 conversions do not sum to exactly 1, so
		// the fallback branch is reachable for r near 1.
		MustDist(
			Outcome[int]{Value: 1, Prob: NewRat(1, 7)},
			Outcome[int]{Value: 2, Prob: NewRat(2, 7)},
			Outcome[int]{Value: 3, Prob: NewRat(4, 7)},
		),
	}
	rng := rand.New(rand.NewSource(42))
	for di, d := range dists {
		f := Freeze(d)
		if f.Len() != d.Len() {
			t.Fatalf("dist %d: frozen len %d != dist len %d", di, f.Len(), d.Len())
		}
		for i := 0; i < 20000; i++ {
			r := rng.Float64()
			if got, want := f.Pick(r), d.Pick(r); got != want {
				t.Fatalf("dist %d: Pick(%v) = %v, want %v", di, r, got, want)
			}
			if got, want := f.At(f.PickIndex(r)), d.Pick(r); got != want {
				t.Fatalf("dist %d: At(PickIndex(%v)) = %v, want %v", di, r, got, want)
			}
		}
		// Boundary draws: exactly the cumulative weights, their
		// neighbours, and the edges of [0, 1).
		for _, v := range d.Support() {
			acc := 0.0
			for _, w := range d.Support() {
				acc += d.P(w).Float64()
				if w == v {
					break
				}
			}
			for _, r := range []float64{0, acc, nextAfterDown(acc), 0.9999999999999999} {
				if r < 0 || r >= 1 {
					continue
				}
				if got, want := f.Pick(r), d.Pick(r); got != want {
					t.Fatalf("dist %d: boundary Pick(%v) = %v, want %v", di, r, got, want)
				}
			}
		}
	}
}

func nextAfterDown(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * (1 - 1e-16)
}

func TestFrozenEmptyPanicsLikeDist(t *testing.T) {
	var d Dist[int]
	var f Frozen[int]
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on empty distribution did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Dist.Pick", func() { d.Pick(0.5) })
	mustPanic("Frozen.Pick", func() { f.Pick(0.5) })
	mustPanic("Frozen.PickIndex", func() { f.PickIndex(0.5) })
	mustPanic("Freeze().Pick", func() { Freeze(d).Pick(0.5) })
}

func TestFrozenPoint(t *testing.T) {
	f := Freeze(Point("x"))
	for _, r := range []float64{0, 0.5, 0.9999999999999999} {
		if got := f.Pick(r); got != "x" {
			t.Errorf("Pick(%v) = %q on a point distribution", r, got)
		}
	}
}

// tinyRat returns a positive rational small enough that Float64 rounds
// it to zero (below the smallest subnormal).
func tinyRat() Rat {
	r := NewRat(1, 2)
	for i := 0; i < 12; i++ { // (1/2)^(2^12) = 2^-4096 << 2^-1074
		r = r.Mul(r)
	}
	return r
}

// hugeRat returns a rational large enough that Float64 rounds it to +Inf.
func hugeRat() Rat {
	r := FromInt(2)
	for i := 0; i < 11; i++ { // 2^(2^11) = 2^2048 >> MaxFloat64
		r = r.Mul(r)
	}
	return r
}

// TestFrozenDegenerateWeights drives hand-built weight slices that are
// invalid as probability spaces but encounterable after Float64
// rounding: the frozen scan must still agree with Dist.Pick, draw by
// draw, through both Pick and PickIndex.
func TestFrozenDegenerateWeights(t *testing.T) {
	tiny, huge := tinyRat(), hugeRat()
	cases := map[string]Dist[int]{
		// Every weight rounds to zero: the scan falls through to the
		// last element for every r.
		"zero-total": {support: []int{0, 1, 2}, weight: []Rat{tiny, tiny, tiny}},
		// A non-finite leading weight absorbs every draw at the scan.
		"inf-first": {support: []int{0, 1}, weight: []Rat{huge, NewRat(1, 2)}},
		// Half then an overflow: the scan splits at 1/2.
		"inf-second": {support: []int{0, 1}, weight: []Rat{NewRat(1, 2), huge}},
		// Total far past one: the scan never reaches the clamped-out tail.
		"over-unity": {support: []int{0, 1, 2}, weight: []Rat{FromInt(1), FromInt(1), FromInt(1)}},
	}
	for name, d := range cases {
		fr := Freeze(d)
		for k := 0; k < 4096; k++ {
			r := float64(k) / 4096
			want := d.Pick(r)
			if got := fr.Pick(r); got != want {
				t.Fatalf("%s: Frozen.Pick(%v) = %v, Dist.Pick = %v", name, r, got, want)
			}
			if got := fr.At(fr.PickIndex(r)); got != want {
				t.Fatalf("%s: Frozen.At(PickIndex(%v)) = %v, Dist.Pick = %v", name, r, got, want)
			}
		}
	}
}

// FuzzFrozenPickIdentity is the degenerate-weight hardening gate of the
// sampling stack: random rational distributions × r values, asserting
// that Frozen — the engine's only compiled sampler — picks exactly what
// Dist picks, through both Pick and PickIndex.
func FuzzFrozenPickIdentity(f *testing.F) {
	f.Add(uint16(1), uint16(1), uint16(0), uint16(0), uint16(0), uint16(0), uint64(0))
	f.Add(uint16(1), uint16(2), uint16(3), uint16(4), uint16(5), uint16(6), uint64(1)<<52)
	f.Add(uint16(997), uint16(1), uint16(1), uint16(1), uint16(0), uint16(0), ^uint64(0))
	f.Add(uint16(65535), uint16(1), uint16(0), uint16(0), uint16(0), uint16(65535), uint64(123456789))
	f.Fuzz(func(t *testing.T, k0, k1, k2, k3, k4, k5 uint16, rbits uint64) {
		ks := []uint16{k0, k1, k2, k3, k4, k5}
		total := int64(0)
		for _, k := range ks {
			total += int64(k)
		}
		if total == 0 {
			t.Skip("no support")
		}
		outs := make([]Outcome[int], 0, len(ks))
		for i, k := range ks {
			outs = append(outs, Outcome[int]{Value: i, Prob: NewRat(int64(k), total)})
		}
		d := MustDist(outs...)
		fr := Freeze(d)

		// One fuzzed draw plus a fixed grid including both endpoints.
		rs := []float64{float64(rbits>>11) / (1 << 53), 0, math.Nextafter(1, 0)}
		for k := 1; k < 16; k++ {
			rs = append(rs, float64(k)/16)
		}
		for _, r := range rs {
			want := d.Pick(r)
			if got := fr.Pick(r); got != want {
				t.Fatalf("Frozen.Pick(%v) = %v, Dist.Pick = %v (dist %v)", r, got, want, d)
			}
			if got := fr.At(fr.PickIndex(r)); got != want {
				t.Fatalf("Frozen.At(PickIndex(%v)) = %v, Dist.Pick = %v (dist %v)", r, got, want, d)
			}
		}
	})
}
