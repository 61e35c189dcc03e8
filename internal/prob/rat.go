// Package prob provides exact rational arithmetic and finite probability
// distributions, the numeric substrate for the probabilistic-automaton
// framework of Lynch, Saias and Segala (PODC 1994).
//
// All probabilities in the framework are exact rationals so that checked
// bounds such as "probability at least 1/8 within time 13" are reproduced
// without floating-point slack. Rat is an inline int64 numerator and
// denominator with a math/big.Rat fallback for values that overflow int64,
// so the common case allocates nothing. It has immutable value semantics:
// every operation returns a fresh value and never mutates its operands, so
// Rat values may be freely shared, stored in maps and compared.
package prob

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Rat is an immutable exact rational number.
//
// Values whose lowest-terms numerator and denominator both have
// magnitude at most MaxInt64 are stored inline as two int64 words, so the
// common case of arithmetic allocates nothing; anything larger is held
// in a *big.Rat. The representation is canonical: 0 is Rat{}, and a
// value is held in big form only when it cannot be inline. Two inline
// Rats are therefore equal as numbers iff they are equal under ==, and
// an inline Rat never equals a big one.
//
// The zero value of Rat is the number 0 and is ready to use.
type Rat struct {
	// n/d is the value in lowest terms when b is nil: d > 0 and
	// |n| <= MaxInt64 (so negation never overflows), except that 0 is
	// stored as n = d = 0.
	n, d int64
	// b is non-nil exactly for values that do not fit inline; it is never
	// mutated after creation.
	b *big.Rat
}

// Common constants. They are package-level for convenience; Rat is
// immutable, so sharing them is safe.
var (
	zeroRat = Rat{}
	oneRat  = Rat{n: 1, d: 1}
	halfRat = Rat{n: 1, d: 2}
)

// Zero returns the rational 0.
func Zero() Rat { return zeroRat }

// One returns the rational 1.
func One() Rat { return oneRat }

// Half returns the rational 1/2.
func Half() Rat { return halfRat }

// NewRat returns the rational num/den. It panics if den is zero; this is a
// programmer error on par with an out-of-range slice index.
func NewRat(num, den int64) Rat {
	if den == 0 {
		panic("prob: NewRat with zero denominator")
	}
	if num == 0 {
		return Rat{}
	}
	un, ud := mag(num), mag(den)
	g := gcd(un, ud)
	if x, ok := inline((num < 0) != (den < 0), un/g, ud/g); ok {
		return x
	}
	return fromBig(big.NewRat(num, den))
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return NewRat(n, 1) }

// FromBig returns a Rat equal to r. The argument is copied; later mutation
// of r does not affect the result. A nil argument yields 0.
func FromBig(r *big.Rat) Rat {
	if r == nil {
		return Rat{}
	}
	x := fromBig(r)
	if x.b != nil {
		x.b = new(big.Rat).Set(r)
	}
	return x
}

// fromBig returns the canonical Rat equal to r, taking ownership of r
// when the value does not fit inline.
func fromBig(r *big.Rat) Rat {
	if r.Sign() == 0 {
		return Rat{}
	}
	num, den := r.Num(), r.Denom()
	if num.IsInt64() && den.IsInt64() && num.Int64() != math.MinInt64 {
		return Rat{n: num.Int64(), d: den.Int64()}
	}
	return Rat{b: r}
}

// ParseRat parses a rational from a string such as "3/8", "1", "0.25" or
// "-7/2". It accepts every form accepted by big.Rat.SetString.
func ParseRat(s string) (Rat, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return Rat{}, fmt.Errorf("prob: cannot parse rational %q", s)
	}
	return fromBig(r), nil
}

// MustParseRat is like ParseRat but panics on malformed input. It is meant
// for constants in tests and examples.
func MustParseRat(s string) Rat {
	r, err := ParseRat(s)
	if err != nil {
		panic(err)
	}
	return r
}

// mag returns |v| as an unsigned magnitude (exact for every int64).
func mag(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// gcd returns the greatest common divisor of a and b (binary algorithm).
func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
		if b == 0 {
			return a << shift
		}
	}
}

// inline returns the inline Rat ±num/den for a numerator and denominator
// already in lowest terms, or ok = false when either exceeds MaxInt64.
func inline(neg bool, num, den uint64) (x Rat, ok bool) {
	if num > math.MaxInt64 || den > math.MaxInt64 {
		return Rat{}, false
	}
	if num == 0 {
		return Rat{}, true
	}
	n := int64(num)
	if neg {
		n = -n
	}
	return Rat{n: n, d: int64(den)}, true
}

// mulU returns a*b, or ok = false when the product exceeds MaxInt64.
func mulU(a, b uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	return lo, hi == 0 && lo <= math.MaxInt64
}

// mulS returns a*b, or ok = false when |a*b| exceeds MaxInt64.
func mulS(a, b int64) (int64, bool) {
	p, ok := mulU(mag(a), mag(b))
	if (a < 0) != (b < 0) {
		return -int64(p), ok
	}
	return int64(p), ok
}

// addS returns a+b, or ok = false on int64 overflow. A MinInt64 sum is
// fine: mag gives its exact magnitude and inline rejects it.
func addS(a, b int64) (int64, bool) {
	s := a + b
	return s, (s^a)&(s^b) >= 0
}

// addInline returns a/b + c/d for inline operands (b, d > 0) by Knuth's
// gcd-reduced addition (TAOCP 4.5.1), or ok = false on int64 overflow.
func addInline(a, b, c, d int64) (Rat, bool) {
	g := int64(gcd(uint64(b), uint64(d)))
	if g == 1 {
		// gcd(b, d) = 1 makes (ad + bc)/bd already lowest terms.
		p, ok1 := mulS(a, d)
		q, ok2 := mulS(c, b)
		s, ok3 := addS(p, q)
		den, ok4 := mulU(uint64(b), uint64(d))
		if !(ok1 && ok2 && ok3 && ok4) {
			return Rat{}, false
		}
		return inline(s < 0, mag(s), den)
	}
	p, ok1 := mulS(a, d/g)
	q, ok2 := mulS(c, b/g)
	t, ok3 := addS(p, q)
	if !(ok1 && ok2 && ok3) {
		return Rat{}, false
	}
	g2 := gcd(mag(t), uint64(g))
	den, ok := mulU(uint64(b/g), uint64(d)/g2)
	if !ok {
		return Rat{}, false
	}
	return inline(t < 0, mag(t)/g2, den)
}

// mulInline returns a/b * c/d for nonzero inline operands (b, d > 0),
// cross-cancelling before multiplying, or ok = false on int64 overflow.
func mulInline(a, b, c, d int64) (Rat, bool) {
	ua, uc := mag(a), mag(c)
	g1 := gcd(ua, uint64(d))
	g2 := gcd(uc, uint64(b))
	num, ok1 := mulU(ua/g1, uc/g2)
	den, ok2 := mulU(uint64(b)/g2, uint64(d)/g1)
	if !(ok1 && ok2) {
		return Rat{}, false
	}
	return inline((a < 0) != (c < 0), num, den)
}

// big returns the receiver as a *big.Rat that must not be mutated.
func (x Rat) big() *big.Rat {
	if x.b != nil {
		return x.b
	}
	if x.n == 0 {
		return new(big.Rat)
	}
	return new(big.Rat).SetFrac64(x.n, x.d)
}

// Big returns a copy of x as a *big.Rat. The caller owns the result.
func (x Rat) Big() *big.Rat {
	if x.b == nil {
		return x.big()
	}
	return new(big.Rat).Set(x.b)
}

// Add returns x + y.
func (x Rat) Add(y Rat) Rat {
	if x.IsZero() {
		return y
	}
	if y.IsZero() {
		return x
	}
	if x.b == nil && y.b == nil {
		if r, ok := addInline(x.n, x.d, y.n, y.d); ok {
			return r
		}
	}
	return fromBig(new(big.Rat).Add(x.big(), y.big()))
}

// Sub returns x - y.
func (x Rat) Sub(y Rat) Rat { return x.Add(y.Neg()) }

// Mul returns x * y.
func (x Rat) Mul(y Rat) Rat {
	if x.IsZero() || y.IsZero() {
		return Rat{}
	}
	if x.b == nil && y.b == nil {
		// Deterministic branches make 1 the commonest factor.
		if x == oneRat {
			return y
		}
		if y == oneRat {
			return x
		}
		if r, ok := mulInline(x.n, x.d, y.n, y.d); ok {
			return r
		}
	}
	return fromBig(new(big.Rat).Mul(x.big(), y.big()))
}

// Div returns x / y. It panics if y is zero, mirroring integer division.
func (x Rat) Div(y Rat) Rat {
	if y.IsZero() {
		panic("prob: division by zero Rat")
	}
	return x.Mul(y.Inv())
}

// Neg returns -x.
func (x Rat) Neg() Rat {
	if x.b == nil {
		return Rat{n: -x.n, d: x.d}
	}
	return fromBig(new(big.Rat).Neg(x.b))
}

// Inv returns 1/x. It panics if x is zero.
func (x Rat) Inv() Rat {
	if x.IsZero() {
		panic("prob: inverse of zero Rat")
	}
	if x.b == nil {
		if x.n < 0 {
			return Rat{n: -x.d, d: -x.n}
		}
		return Rat{n: x.d, d: x.n}
	}
	return fromBig(new(big.Rat).Inv(x.b))
}

// Cmp compares x and y and returns -1, 0, or +1.
func (x Rat) Cmp(y Rat) int {
	if x.b != nil || y.b != nil {
		return x.big().Cmp(y.big())
	}
	sx, sy := x.Sign(), y.Sign()
	if sx != sy || sx == 0 {
		return cmp.Compare(sx, sy)
	}
	// Same nonzero sign: compare |x.n|·y.d with |y.n|·x.d in 128 bits.
	h1, l1 := bits.Mul64(mag(x.n), uint64(y.d))
	h2, l2 := bits.Mul64(mag(y.n), uint64(x.d))
	c := cmp.Compare(h1, h2)
	if c == 0 {
		c = cmp.Compare(l1, l2)
	}
	return sx * c
}

// Equal reports whether x == y as rational numbers.
func (x Rat) Equal(y Rat) bool {
	if x.b == nil || y.b == nil {
		// Canonical form: an inline value never equals a big one.
		return x == y
	}
	return x.b.Cmp(y.b) == 0
}

// Less reports whether x < y.
func (x Rat) Less(y Rat) bool { return x.Cmp(y) < 0 }

// LessEq reports whether x <= y.
func (x Rat) LessEq(y Rat) bool { return x.Cmp(y) <= 0 }

// Sign returns -1, 0, or +1 according to the sign of x.
func (x Rat) Sign() int {
	switch {
	case x.b != nil:
		return x.b.Sign()
	case x.n < 0:
		return -1
	case x.n > 0:
		return 1
	}
	return 0
}

// IsZero reports whether x == 0.
func (x Rat) IsZero() bool { return x.b == nil && x.n == 0 }

// IsOne reports whether x == 1.
func (x Rat) IsOne() bool { return x == oneRat }

// IsProbability reports whether 0 <= x <= 1.
func (x Rat) IsProbability() bool {
	return x.Sign() >= 0 && x.Cmp(oneRat) <= 0
}

// Min returns the smaller of x and y.
func (x Rat) Min(y Rat) Rat {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}

// Max returns the larger of x and y.
func (x Rat) Max(y Rat) Rat {
	if x.Cmp(y) >= 0 {
		return x
	}
	return y
}

// Float64 returns the nearest float64 value to x (ties to even).
func (x Rat) Float64() float64 {
	if x.b == nil && mag(x.n) <= 1<<53 && x.d <= 1<<53 {
		if x.n == 0 {
			return 0
		}
		// Both parts are exact float64s, so IEEE division rounds the
		// true quotient once, to nearest even: the value big.Rat.Float64
		// returns.
		return float64(x.n) / float64(x.d)
	}
	f, _ := x.big().Float64()
	return f
}

// String formats x as "num/den", or as "num" when the denominator is 1.
func (x Rat) String() string {
	if x.b != nil {
		return x.b.RatString()
	}
	if x.d <= 1 {
		return strconv.FormatInt(x.n, 10)
	}
	var buf [41]byte
	out := strconv.AppendInt(buf[:0], x.n, 10)
	out = append(out, '/')
	return string(strconv.AppendInt(out, x.d, 10))
}

// MarshalText implements encoding.TextMarshaler, emitting the canonical
// "num/den" form; together with UnmarshalText it makes Rat round-trip
// through JSON and other textual encodings without precision loss.
func (x Rat) MarshalText() ([]byte, error) {
	return []byte(x.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (x *Rat) UnmarshalText(text []byte) error {
	r, err := ParseRat(string(text))
	if err != nil {
		return err
	}
	*x = r
	return nil
}

// SumRats returns the sum of all arguments.
func SumRats(xs ...Rat) Rat {
	var sum Rat
	for _, x := range xs {
		sum = sum.Add(x)
	}
	return sum
}

// MinRats returns the minimum of its arguments. It panics when called with
// no arguments.
func MinRats(xs ...Rat) Rat {
	if len(xs) == 0 {
		panic("prob: MinRats of empty list")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = m.Min(x)
	}
	return m
}

// MaxRats returns the maximum of its arguments. It panics when called with
// no arguments.
func MaxRats(xs ...Rat) Rat {
	if len(xs) == 0 {
		panic("prob: MaxRats of empty list")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = m.Max(x)
	}
	return m
}

// ProdRats returns the product of all arguments, or 1 for no arguments.
func ProdRats(xs ...Rat) Rat {
	p := oneRat
	for _, x := range xs {
		if x.IsZero() {
			return Rat{}
		}
		p = p.Mul(x)
	}
	return p
}
