package prob

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewDist(t *testing.T) {
	tests := []struct {
		name     string
		outcomes []Outcome[string]
		wantErr  bool
	}{
		{
			name: "fair coin",
			outcomes: []Outcome[string]{
				{Value: "heads", Prob: Half()},
				{Value: "tails", Prob: Half()},
			},
		},
		{
			name:     "point",
			outcomes: []Outcome[string]{{Value: "x", Prob: One()}},
		},
		{
			name: "duplicates merge",
			outcomes: []Outcome[string]{
				{Value: "x", Prob: Half()},
				{Value: "x", Prob: Half()},
			},
		},
		{
			name: "zero weights dropped",
			outcomes: []Outcome[string]{
				{Value: "x", Prob: One()},
				{Value: "y", Prob: Zero()},
			},
		},
		{
			name: "under one",
			outcomes: []Outcome[string]{
				{Value: "x", Prob: Half()},
			},
			wantErr: true,
		},
		{
			name: "over one",
			outcomes: []Outcome[string]{
				{Value: "x", Prob: One()},
				{Value: "y", Prob: Half()},
			},
			wantErr: true,
		},
		{
			name: "negative",
			outcomes: []Outcome[string]{
				{Value: "x", Prob: NewRat(3, 2)},
				{Value: "y", Prob: NewRat(-1, 2)},
			},
			wantErr: true,
		},
		{
			name:    "empty",
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := NewDist(tt.outcomes...)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("NewDist = %v, want error", d)
				}
				if !errors.Is(err, ErrNotADistribution) {
					t.Errorf("error %v is not ErrNotADistribution", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewDist: %v", err)
			}
			if !d.IsValid() {
				t.Errorf("distribution %v is not valid", d)
			}
		})
	}
}

func TestDistAccessors(t *testing.T) {
	d := MustDist(
		Outcome[string]{Value: "a", Prob: NewRat(1, 4)},
		Outcome[string]{Value: "b", Prob: NewRat(3, 4)},
	)
	if got := d.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	if got := d.P("a"); !got.Equal(NewRat(1, 4)) {
		t.Errorf("P(a) = %v, want 1/4", got)
	}
	if got := d.P("missing"); !got.IsZero() {
		t.Errorf("P(missing) = %v, want 0", got)
	}
	if _, ok := d.IsPoint(); ok {
		t.Error("two-point distribution reported as point")
	}
	if v, ok := Point("only").IsPoint(); !ok || v != "only" {
		t.Errorf("Point.IsPoint = %q, %t", v, ok)
	}
	got := d.ProbOf(func(s string) bool { return s == "a" || s == "b" })
	if !got.IsOne() {
		t.Errorf("ProbOf(all) = %v, want 1", got)
	}
}

func TestUniform(t *testing.T) {
	d, err := Uniform(1, 2, 3, 4)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	for _, v := range []int{1, 2, 3, 4} {
		if got := d.P(v); !got.Equal(NewRat(1, 4)) {
			t.Errorf("P(%d) = %v, want 1/4", v, got)
		}
	}
	if _, err := Uniform[int](); err == nil {
		t.Error("Uniform() on empty support succeeded")
	}
	if _, err := Uniform(1, 1); err == nil {
		t.Error("Uniform with duplicates succeeded")
	}
}

func TestFlipRat(t *testing.T) {
	d, err := FlipRat("h", NewRat(1, 3), "t")
	if err != nil {
		t.Fatalf("FlipRat: %v", err)
	}
	if got := d.P("t"); !got.Equal(NewRat(2, 3)) {
		t.Errorf("P(t) = %v, want 2/3", got)
	}
	if _, err := FlipRat("h", NewRat(3, 2), "t"); err == nil {
		t.Error("FlipRat with p > 1 succeeded")
	}
}

func TestMapDist(t *testing.T) {
	d := MustUniform(1, 2, 3, 4)
	even := MapDist(d, func(n int) bool { return n%2 == 0 })
	if got := even.P(true); !got.Equal(Half()) {
		t.Errorf("P(even) = %v, want 1/2", got)
	}
	if !even.IsValid() {
		t.Error("mapped distribution is invalid")
	}
}

func TestProduct(t *testing.T) {
	coin := MustUniform("h", "t")
	die := MustUniform(1, 2, 3)
	prod := Product(coin, die)
	if got := prod.Len(); got != 6 {
		t.Errorf("product support size = %d, want 6", got)
	}
	if got := prod.P(Pair[string, int]{First: "h", Second: 2}); !got.Equal(NewRat(1, 6)) {
		t.Errorf("P(h,2) = %v, want 1/6", got)
	}
	if !prod.IsValid() {
		t.Error("product distribution is invalid")
	}
}

func TestPick(t *testing.T) {
	d := MustDist(
		Outcome[string]{Value: "a", Prob: NewRat(1, 4)},
		Outcome[string]{Value: "b", Prob: NewRat(3, 4)},
	)
	tests := []struct {
		r    float64
		want string
	}{
		{r: 0.0, want: "a"},
		{r: 0.2, want: "a"},
		{r: 0.25, want: "b"},
		{r: 0.99, want: "b"},
	}
	for _, tt := range tests {
		if got := d.Pick(tt.r); got != tt.want {
			t.Errorf("Pick(%g) = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestDistString(t *testing.T) {
	d := MustDist(
		Outcome[string]{Value: "b", Prob: Half()},
		Outcome[string]{Value: "a", Prob: Half()},
	)
	if got, want := d.String(), "{a:1/2, b:1/2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestDistProperties(t *testing.T) {
	t.Run("uniform over distinct ints is valid", func(t *testing.T) {
		f := func(vals []int16) bool {
			seen := map[int16]bool{}
			var distinct []int16
			for _, v := range vals {
				if !seen[v] {
					seen[v] = true
					distinct = append(distinct, v)
				}
			}
			if len(distinct) == 0 {
				return true
			}
			d, err := Uniform(distinct...)
			return err == nil && d.IsValid()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("MapDist preserves total mass", func(t *testing.T) {
		f := func(vals []int16) bool {
			seen := map[int16]bool{}
			var distinct []int16
			for _, v := range vals {
				if !seen[v] {
					seen[v] = true
					distinct = append(distinct, v)
				}
			}
			if len(distinct) == 0 {
				return true
			}
			d := MustUniform(distinct...)
			mapped := MapDist(d, func(v int16) int16 { return v / 3 })
			return mapped.IsValid()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestDistDedupe merges duplicates in small and large supports: every
// value appears twice, the second time in reverse order, and must keep its
// first-seen position with the summed weight — through NewDist, MapDist
// and Uniform alike.
func TestDistDedupe(t *testing.T) {
	for _, n := range []int{15, 16, 17, 100} {
		half := NewRat(1, int64(2*n))
		var outs []Outcome[int]
		for v := 0; v < n; v++ {
			outs = append(outs, Outcome[int]{Value: v, Prob: half})
		}
		for v := n - 1; v >= 0; v-- {
			outs = append(outs, Outcome[int]{Value: v, Prob: half})
		}
		d, err := NewDist(outs...)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		m := MapDist(MustUniform(seq(2*n)...), func(v int) int { return v % n })
		for name, got := range map[string]Dist[int]{"NewDist": d, "MapDist": m} {
			if got.Len() != n {
				t.Fatalf("n=%d %s: support %d, want %d", n, name, got.Len(), n)
			}
			for i, v := range got.Support() {
				if v != i {
					t.Fatalf("n=%d %s: support[%d] = %d, want first-seen order", n, name, i, v)
				}
				if p := got.P(v); !p.Equal(NewRat(1, int64(n))) {
					t.Fatalf("n=%d %s: P(%d) = %v, want 1/%d", n, name, v, p, n)
				}
			}
			if !got.IsValid() {
				t.Fatalf("n=%d %s: invalid", n, name)
			}
		}
		if _, err := Uniform(append(seq(n), n-1)...); err == nil {
			t.Fatalf("n=%d: Uniform accepted a duplicate", n)
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestDistFirstSeenOrder pins support order, which fixes every Outcomes,
// Pick and Freeze order downstream.
func TestDistFirstSeenOrder(t *testing.T) {
	d := MustDist(
		Outcome[string]{Value: "c", Prob: NewRat(1, 4)},
		Outcome[string]{Value: "a", Prob: NewRat(1, 4)},
		Outcome[string]{Value: "c", Prob: NewRat(1, 4)},
		Outcome[string]{Value: "b", Prob: NewRat(1, 4)},
	)
	if got := d.Support(); len(got) != 3 || got[0] != "c" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("NewDist support = %v, want [c a b]", got)
	}
	outs := d.Outcomes()
	if outs[0].Value != "c" || !outs[0].Prob.Equal(Half()) {
		t.Fatalf("Outcomes()[0] = %v, want c:1/2", outs[0])
	}
	m := MapDist(d, func(s string) bool { return s == "a" })
	if got := m.Support(); len(got) != 2 || got[0] != false || got[1] != true {
		t.Fatalf("MapDist support = %v, want [false true]", got)
	}
	p := Product(d, MustUniform(2, 1))
	want := []Pair[string, int]{{"c", 2}, {"c", 1}, {"a", 2}, {"a", 1}, {"b", 2}, {"b", 1}}
	for i, pr := range p.Support() {
		if pr != want[i] {
			t.Fatalf("Product support = %v, want %v", p.Support(), want)
		}
		if got, w := p.P(pr), d.P(pr.First).Mul(Half()); !got.Equal(w) {
			t.Fatalf("Product P(%v) = %v, want %v", pr, got, w)
		}
	}
}

func TestDistPOutsideSupport(t *testing.T) {
	for _, d := range []Dist[int]{Point(1), MustUniform(1, 2, 3), MustUniform(seq(40)...), {}} {
		if p := d.P(-1); !p.IsZero() || p != (Rat{}) {
			t.Errorf("%v: P(-1) = %v, want 0", d, p)
		}
	}
}

func TestDistEqual(t *testing.T) {
	d := MustDist(
		Outcome[int]{Value: 1, Prob: NewRat(1, 4)},
		Outcome[int]{Value: 2, Prob: NewRat(1, 4)},
		Outcome[int]{Value: 3, Prob: Half()},
	)
	permuted := MustDist(
		Outcome[int]{Value: 3, Prob: Half()},
		Outcome[int]{Value: 1, Prob: NewRat(1, 4)},
		Outcome[int]{Value: 2, Prob: NewRat(1, 4)},
	)
	otherWeight := MustDist(
		Outcome[int]{Value: 1, Prob: Half()},
		Outcome[int]{Value: 2, Prob: NewRat(1, 4)},
		Outcome[int]{Value: 3, Prob: NewRat(1, 4)},
	)
	otherSupport := MustDist(
		Outcome[int]{Value: 1, Prob: NewRat(1, 4)},
		Outcome[int]{Value: 2, Prob: NewRat(1, 4)},
		Outcome[int]{Value: 4, Prob: Half()},
	)
	for _, c := range []struct {
		name string
		e    Dist[int]
		want bool
	}{
		{"same order", MapDist(d, func(v int) int { return v }), true},
		{"permuted", permuted, true},
		{"other weight", otherWeight, false},
		{"other support", otherSupport, false},
		{"smaller support", MustUniform(1, 2), false},
		{"empty", Dist[int]{}, false},
	} {
		if got := d.Equal(c.e); got != c.want {
			t.Errorf("%s: d.Equal = %v, want %v", c.name, got, c.want)
		}
		if got := c.e.Equal(d); got != c.want {
			t.Errorf("%s: e.Equal(d) = %v, want %v", c.name, got, c.want)
		}
	}
	if !(Dist[int]{}).Equal(Dist[int]{}) {
		t.Error("empty distributions differ")
	}
}
