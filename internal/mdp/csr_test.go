package mdp

import (
	"math/big"
	"testing"

	"repro/internal/prob"
)

// refReachWithinTicks is ReachWithinTicks computed directly in math/big
// over the per-state choices an MDP was built from, for MDPs whose
// zero-duration edges all point to lower-numbered states (so one
// ascending pass per tick layer respects the non-tick order).
func refReachWithinTicks(choices [][]Choice, target []bool, horizon int, goal Goal) []*big.Rat {
	prev := make([]*big.Rat, len(choices))
	for s := range prev {
		prev[s] = new(big.Rat)
	}
	for h := 0; h <= horizon; h++ {
		cur := make([]*big.Rat, len(choices))
		for s := range cur {
			cur[s] = new(big.Rat)
			if target[s] {
				cur[s].SetInt64(1)
				continue
			}
			for ci, ch := range choices[s] {
				v := new(big.Rat)
				if !ch.Tick || h > 0 {
					layer := cur
					if ch.Tick {
						layer = prev
					}
					for _, tr := range ch.Branches {
						v.Add(v, new(big.Rat).Mul(tr.P.Big(), layer[tr.To]))
					}
				}
				if c := v.Cmp(cur[s]); ci == 0 || (goal == MinProb && c < 0) || (goal == MaxProb && c > 0) {
					cur[s] = v
				}
			}
		}
		prev = cur
	}
	return prev
}

// TestReachWithinTicksBigFallback drives the exact solver past int64:
// branch probabilities near 2^-62 put (2^62±1)^h in the denominators,
// so values start inline and overflow into math/big partway through the
// horizon. Every value must still equal the math/big reference.
func TestReachWithinTicksBigFallback(t *testing.T) {
	rare := prob.NewRat(1, 1<<62+1)
	rare2 := prob.NewRat(1, 1<<62-1)
	choices := [][]Choice{
		nil, // 0: target
		{ // 1: two rare ticks; the adversary picks per goal
			{Label: "rare", Tick: true, Branches: []Tr{{To: 0, P: rare}, {To: 1, P: prob.One().Sub(rare)}}},
			{Label: "rare2", Tick: true, Branches: []Tr{{To: 0, P: rare2}, {To: 3, P: prob.One().Sub(rare2)}}},
		},
		{ // 2: an instant three-way split, or a tick to 3
			{Label: "split", Branches: []Tr{{To: 1, P: prob.NewRat(1, 3)}, {To: 0, P: prob.NewRat(2, 3)}}},
			tickTo("wait", 3),
		},
		{ // 3: a coin tick back into the rare states
			tickCoin("coin", 2, 1),
		},
	}
	m := mustNew(choices)
	target := mask(4, 0)
	for _, goal := range []Goal{MinProb, MaxProb} {
		for h := 0; h <= 6; h++ {
			got, err := m.ReachWithinTicks(target, h, goal)
			if err != nil {
				t.Fatal(err)
			}
			want := refReachWithinTicks(choices, target, h, goal)
			for s := range got {
				if got[s].Big().Cmp(want[s]) != 0 {
					t.Fatalf("goal %d horizon %d state %d: P = %v, want %v", goal, h, s, got[s], want[s].RatString())
				}
			}
		}
	}
	v, err := m.ReachWithinTicks(target, 6, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if v[1].Big().Denom().BitLen() <= 64 {
		t.Fatalf("state 1 at horizon 6 = %v still fits int64: the big path was not exercised", v[1])
	}
}

// TestFootprintCountsProbabilityTable pins the exact-probability bytes of
// MemFootprint and of the explorer's budget footprint: a 4-byte table
// index per branch plus one entry per distinct probability, not a Rat
// (or pointer) per branch.
func TestFootprintCountsProbabilityTable(t *testing.T) {
	third := prob.NewRat(1, 3)
	choices := [][]Choice{
		{tickCoin("a", 1, 2), tickCoin("b", 2, 0)},
		{{Label: "c", Tick: true, Branches: []Tr{{To: 0, P: third}, {To: 1, P: third}, {To: 2, P: third}}}},
		{tickTo("d", 0), tickCoin("e", 0, 1)},
	}
	m := mustNew(choices)
	c := m.CSR()
	if got := len(c.pt); got != 3 {
		t.Fatalf("probability table has %d entries, want 3 (1/2, 1/3, 1)", got)
	}
	if len(c.pi) != c.NumBranches() {
		t.Fatalf("%d table indices for %d branches", len(c.pi), c.NumBranches())
	}
	rest := int64(len(c.choiceRow))*4 + int64(len(c.branchRow))*4 + int64(len(c.labelID))*4 +
		int64(len(c.tick))*8 + int64(len(c.col))*4 + int64(len(c.pf))*8
	if got, want := c.MemFootprint()-rest, 4*int64(c.NumBranches())+3*ratBytes; got != want {
		t.Errorf("MemFootprint counts %d B of exact probabilities, want %d (4 B/branch + table)", got, want)
	}

	b := newCSRBuilder(0, 0, 0)
	for _, cs := range choices {
		b.startState()
		for _, ch := range cs {
			b.addChoice(ch.Label, ch.Tick)
			for _, tr := range ch.Branches {
				b.addBranch(int32(tr.To), tr.P)
			}
		}
	}
	bc := b.c
	rest = int64(cap(bc.choiceRow))*4 + int64(cap(bc.branchRow))*4 + int64(cap(bc.labelID))*4 +
		int64(cap(bc.tick))*8 + int64(cap(bc.col))*4 + int64(cap(bc.pf))*8
	if got, want := b.footprint()-rest, 4*int64(cap(bc.pi))+int64(cap(bc.pt))*ratBytes; got != want {
		t.Errorf("explorer footprint counts %d B of exact probabilities, want %d (4 B/branch + table)", got, want)
	}
	if err := b.finish().Equal(c); err != nil {
		t.Fatal(err)
	}
}
