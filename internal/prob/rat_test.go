package prob

import (
	"encoding/json"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestNewRat(t *testing.T) {
	tests := []struct {
		name     string
		num, den int64
		want     string
	}{
		{name: "simple", num: 1, den: 2, want: "1/2"},
		{name: "reduced", num: 2, den: 4, want: "1/2"},
		{name: "integer", num: 6, den: 3, want: "2"},
		{name: "zero", num: 0, den: 5, want: "0"},
		{name: "negative", num: -3, den: 9, want: "-1/3"},
		{name: "negative denominator", num: 1, den: -2, want: "-1/2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := NewRat(tt.num, tt.den).String(); got != tt.want {
				t.Errorf("NewRat(%d, %d) = %s, want %s", tt.num, tt.den, got, tt.want)
			}
		})
	}
}

func TestNewRatZeroDenominatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRat(1, 0) did not panic")
		}
	}()
	NewRat(1, 0)
}

func TestParseRat(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{in: "3/8", want: "3/8"},
		{in: "1", want: "1"},
		{in: "0.25", want: "1/4"},
		{in: "-7/2", want: "-7/2"},
		{in: "", wantErr: true},
		{in: "x/y", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParseRat(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseRat(%q) = %v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseRat(%q): %v", tt.in, err)
			}
			if got.String() != tt.want {
				t.Errorf("ParseRat(%q) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestRatArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Rat
		want string
	}{
		{name: "add", got: NewRat(1, 2).Add(NewRat(1, 3)), want: "5/6"},
		{name: "add zero left", got: Zero().Add(NewRat(2, 7)), want: "2/7"},
		{name: "add zero right", got: NewRat(2, 7).Add(Zero()), want: "2/7"},
		{name: "sub", got: NewRat(1, 2).Sub(NewRat(1, 3)), want: "1/6"},
		{name: "sub to negative", got: NewRat(1, 3).Sub(NewRat(1, 2)), want: "-1/6"},
		{name: "mul", got: NewRat(2, 3).Mul(NewRat(3, 4)), want: "1/2"},
		{name: "mul by zero", got: NewRat(2, 3).Mul(Zero()), want: "0"},
		{name: "div", got: NewRat(1, 2).Div(NewRat(1, 4)), want: "2"},
		{name: "neg", got: NewRat(3, 5).Neg(), want: "-3/5"},
		{name: "neg zero", got: Zero().Neg(), want: "0"},
		{name: "inv", got: NewRat(3, 5).Inv(), want: "5/3"},
		{name: "min", got: NewRat(1, 2).Min(NewRat(1, 3)), want: "1/3"},
		{name: "max", got: NewRat(1, 2).Max(NewRat(1, 3)), want: "1/2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.got.String(); got != tt.want {
				t.Errorf("got %s, want %s", got, tt.want)
			}
		})
	}
}

func TestRatDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	One().Div(Zero())
}

func TestRatInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv of zero did not panic")
		}
	}()
	Zero().Inv()
}

func TestRatPredicates(t *testing.T) {
	if !Zero().IsZero() {
		t.Error("Zero().IsZero() = false")
	}
	if !One().IsOne() {
		t.Error("One().IsOne() = false")
	}
	if Half().IsOne() || Half().IsZero() {
		t.Error("Half() misclassified")
	}
	for _, x := range []Rat{Zero(), Half(), One()} {
		if !x.IsProbability() {
			t.Errorf("%v.IsProbability() = false", x)
		}
	}
	for _, x := range []Rat{NewRat(-1, 2), NewRat(3, 2)} {
		if x.IsProbability() {
			t.Errorf("%v.IsProbability() = true", x)
		}
	}
}

func TestRatCmp(t *testing.T) {
	tests := []struct {
		a, b Rat
		want int
	}{
		{a: Zero(), b: Zero(), want: 0},
		{a: Zero(), b: One(), want: -1},
		{a: One(), b: Zero(), want: 1},
		{a: NewRat(2, 4), b: Half(), want: 0},
		{a: NewRat(-1, 2), b: Zero(), want: -1},
	}
	for _, tt := range tests {
		if got := tt.a.Cmp(tt.b); got != tt.want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	if got := SumRats(Half(), NewRat(1, 4), NewRat(1, 4)); !got.IsOne() {
		t.Errorf("SumRats = %v, want 1", got)
	}
	if got := SumRats(); !got.IsZero() {
		t.Errorf("SumRats() = %v, want 0", got)
	}
	if got := MinRats(Half(), NewRat(1, 8), One()); !got.Equal(NewRat(1, 8)) {
		t.Errorf("MinRats = %v, want 1/8", got)
	}
	if got := MaxRats(Half(), NewRat(1, 8), One()); !got.IsOne() {
		t.Errorf("MaxRats = %v, want 1", got)
	}
	if got := ProdRats(Half(), Half(), Half()); !got.Equal(NewRat(1, 8)) {
		t.Errorf("ProdRats = %v, want 1/8", got)
	}
	if got := ProdRats(); !got.IsOne() {
		t.Errorf("ProdRats() = %v, want 1", got)
	}
}

func TestFromBigCopies(t *testing.T) {
	src := big.NewRat(1, 3)
	r := FromBig(src)
	src.SetInt64(7)
	if got := r.String(); got != "1/3" {
		t.Errorf("FromBig aliased its argument: got %s, want 1/3", got)
	}
}

func TestRatTextRoundTrip(t *testing.T) {
	type payload struct {
		P Rat `json:"p"`
	}
	in := payload{P: NewRat(15, 16)}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"p":"15/16"}` {
		t.Errorf("marshal = %s", data)
	}
	var out payload
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.P.Equal(in.P) {
		t.Errorf("round-trip = %v", out.P)
	}
	if err := json.Unmarshal([]byte(`{"p":"x/y"}`), &out); err == nil {
		t.Error("malformed rational accepted")
	}

	// Zero value marshals as "0".
	zeroData, err := json.Marshal(payload{})
	if err != nil {
		t.Fatal(err)
	}
	if string(zeroData) != `{"p":"0"}` {
		t.Errorf("zero marshal = %s", zeroData)
	}
}

// ratFromPair builds a bounded random rational from two int32 values,
// keeping testing/quick inputs well away from overflow concerns.
func ratFromPair(num int32, den int32) Rat {
	d := int64(den)
	if d == 0 {
		d = 1
	}
	if d < 0 {
		d = -d
	}
	return NewRat(int64(num), d)
}

func TestRatProperties(t *testing.T) {
	t.Run("add commutes", func(t *testing.T) {
		f := func(a1, a2, b1, b2 int32) bool {
			x, y := ratFromPair(a1, a2), ratFromPair(b1, b2)
			return x.Add(y).Equal(y.Add(x))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("mul distributes over add", func(t *testing.T) {
		f := func(a1, a2, b1, b2, c1, c2 int32) bool {
			x, y, z := ratFromPair(a1, a2), ratFromPair(b1, b2), ratFromPair(c1, c2)
			return x.Mul(y.Add(z)).Equal(x.Mul(y).Add(x.Mul(z)))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("sub then add round-trips", func(t *testing.T) {
		f := func(a1, a2, b1, b2 int32) bool {
			x, y := ratFromPair(a1, a2), ratFromPair(b1, b2)
			return x.Sub(y).Add(y).Equal(x)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("operations do not mutate operands", func(t *testing.T) {
		f := func(a1, a2, b1, b2 int32) bool {
			x, y := ratFromPair(a1, a2), ratFromPair(b1, b2)
			xs, ys := x.String(), y.String()
			_ = x.Add(y)
			_ = x.Mul(y)
			_ = x.Sub(y)
			return x.String() == xs && y.String() == ys
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("min max order", func(t *testing.T) {
		f := func(a1, a2, b1, b2 int32) bool {
			x, y := ratFromPair(a1, a2), ratFromPair(b1, b2)
			return x.Min(y).LessEq(x.Max(y))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// checkRat fails t unless x is the canonical Rat for the value want:
// equal to it, inline exactly when the lowest-terms numerator and
// denominator fit (with |num| <= MaxInt64), and Rat{} for zero. It
// also checks String and Float64 (bit for bit) against math/big.
func checkRat(t *testing.T, op string, x Rat, want *big.Rat) {
	t.Helper()
	if x.Big().Cmp(want) != 0 {
		t.Fatalf("%s = %v, want %v", op, x, want.RatString())
	}
	num, den := want.Num(), want.Denom()
	fits := num.IsInt64() && den.IsInt64() && num.Int64() != math.MinInt64
	if inline := x.b == nil; inline != fits {
		t.Fatalf("%s = %v: inline=%t, but fits int64=%t", op, x, inline, fits)
	}
	if want.Sign() == 0 && x != (Rat{}) {
		t.Fatalf("%s: zero is %#v, not Rat{}", op, x)
	}
	if got, ref := x.String(), want.RatString(); got != ref {
		t.Fatalf("%s: String %q, big.Rat %q", op, got, ref)
	}
	ref, _ := want.Float64()
	if got := x.Float64(); math.Float64bits(got) != math.Float64bits(ref) {
		t.Fatalf("%s = %v: Float64 %v (%#x), big.Rat %v (%#x)", op, x, got, math.Float64bits(got), ref, math.Float64bits(ref))
	}
}

// FuzzRatOps checks every Rat operation against a math/big reference,
// across the int64 overflow boundary: results must be equal as numbers,
// canonical (so == agrees with Equal on inline values), and format and
// round to float64 exactly as big.Rat does.
func FuzzRatOps(f *testing.F) {
	edges := []int64{0, 1, -1, math.MinInt64, math.MaxInt64,
		1<<62 + 1, 1<<62 - 1, 1<<53 + 1, 1<<53 - 1, -(1<<53 + 1)}
	for i, a := range edges {
		for _, c := range edges[i:] {
			f.Add(a, c, c, a)
			f.Add(a, int64(3), c, int64(7))
		}
	}
	// -2^62 + -2^62 = MinInt64 fits int64 but not the inline form.
	f.Add(int64(-1<<62), int64(1), int64(-1<<62), int64(1))
	f.Fuzz(func(t *testing.T, a, b, c, d int64) {
		if b == 0 || d == 0 {
			t.Skip("zero denominator")
		}
		x, y := NewRat(a, b), NewRat(c, d)
		bx, by := big.NewRat(a, b), big.NewRat(c, d)
		checkRat(t, "x", x, bx)
		checkRat(t, "y", y, by)

		// Products of two inline values reach 2^126, so the second round
		// runs the big-fallback path and must re-canonicalize results that
		// fit again (z/y == x).
		z, bz := x.Mul(y), new(big.Rat).Mul(bx, by)
		vals := []struct {
			name string
			r    Rat
			b    *big.Rat
		}{{"x", x, bx}, {"y", y, by}, {"x*y", z, bz}}
		for _, p := range vals {
			for _, q := range vals {
				pq := p.name + "," + q.name
				checkRat(t, "Add("+pq+")", p.r.Add(q.r), new(big.Rat).Add(p.b, q.b))
				checkRat(t, "Sub("+pq+")", p.r.Sub(q.r), new(big.Rat).Sub(p.b, q.b))
				checkRat(t, "Mul("+pq+")", p.r.Mul(q.r), new(big.Rat).Mul(p.b, q.b))
				if q.b.Sign() != 0 {
					checkRat(t, "Div("+pq+")", p.r.Div(q.r), new(big.Rat).Quo(p.b, q.b))
				}
				if got, want := p.r.Cmp(q.r), p.b.Cmp(q.b); got != want {
					t.Fatalf("Cmp(%s) = %d, want %d", pq, got, want)
				}
				if got, want := p.r.Equal(q.r), p.b.Cmp(q.b) == 0; got != want {
					t.Fatalf("Equal(%s) = %t, want %t", pq, got, want)
				}
				if p.r.b == nil && q.r.b == nil && (p.r == q.r) != p.r.Equal(q.r) {
					t.Fatalf("%s: == disagrees with Equal on inline values", pq)
				}
			}
			checkRat(t, "Neg("+p.name+")", p.r.Neg(), new(big.Rat).Neg(p.b))
			if p.b.Sign() != 0 {
				checkRat(t, "Inv("+p.name+")", p.r.Inv(), new(big.Rat).Inv(p.b))
			}
			if got, want := p.r.Sign(), p.b.Sign(); got != want {
				t.Fatalf("Sign(%s) = %d, want %d", p.name, got, want)
			}
		}
	})
}
