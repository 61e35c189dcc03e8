package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/prob"
)

func TestCheckAll(t *testing.T) {
	sc := scriptFixture(t, true)
	a := listSet("A", 0)
	b := listSet("B", 1)
	d := listSet("D", 3)

	results, err := CheckAll(sc.Model, sc.Index,
		stmt(a, b, "1", "1"),
		stmt(a, d, "3", "1"),
		stmt(a, d, "1", "1"), // fails but is not an error
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if !results[0].Holds || !results[1].Holds || results[2].Holds {
		t.Errorf("verdicts = %t %t %t", results[0].Holds, results[1].Holds, results[2].Holds)
	}

	// An invalid statement aborts with context.
	_, err = CheckAll(sc.Model, sc.Index, stmt(a, b, "1/2", "1"))
	if err == nil || !errors.Is(err, ErrNonIntegerTime) {
		t.Errorf("err = %v, want ErrNonIntegerTime", err)
	}
}

func TestCheckedPremise(t *testing.T) {
	sc := scriptFixture(t, true)
	a := listSet("A", 0)
	d := listSet("D", 3)

	p, r, err := CheckedPremise(sc.Model, sc.Index, stmt(a, d, "3", "1"), "toy chain")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Holds || p.Rule != RulePremise {
		t.Errorf("result = %+v, proof rule = %q", r, p.Rule)
	}
	if !strings.Contains(p.Note, "toy chain") || !strings.Contains(p.Note, "measured worst-case") {
		t.Errorf("premise note = %q", p.Note)
	}

	if _, _, err := CheckedPremise(sc.Model, sc.Index, stmt(a, d, "1", "1"), "false"); err == nil {
		t.Error("failing premise accepted")
	}
}

// TestPremiseFromResult pins that CheckedPremise is CheckStatement plus
// PremiseFromResult: the same note, and a failing result refused.
func TestPremiseFromResult(t *testing.T) {
	sc := scriptFixture(t, true)
	a := listSet("A", 0)
	d := listSet("D", 3)

	want, _, err := CheckedPremise(sc.Model, sc.Index, stmt(a, d, "3", "1"), "toy chain")
	if err != nil {
		t.Fatal(err)
	}
	r, err := CheckStatement(sc.Model, sc.Index, stmt(a, d, "3", "1"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := PremiseFromResult(r, "toy chain")
	if err != nil {
		t.Fatal(err)
	}
	if p.Note != want.Note || p.Rule != RulePremise || p.Stmt.String() != want.Stmt.String() {
		t.Errorf("PremiseFromResult = %+v, CheckedPremise = %+v", p, want)
	}

	r, err = CheckStatement(sc.Model, sc.Index, stmt(a, d, "1", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PremiseFromResult(r, "false"); err == nil || !strings.Contains(err.Error(), "fails") {
		t.Errorf("failing result accepted or wrong error: %v", err)
	}
}

func TestIntTimeBounds(t *testing.T) {
	if _, err := intTime(prob.MustParseRat("1000000000000")); err == nil {
		t.Error("absurd time bound accepted")
	}
	got, err := intTime(prob.FromInt(13))
	if err != nil || got != 13 {
		t.Errorf("intTime(13) = %d, %v", got, err)
	}
	if _, err := intTime(prob.NewRat(-1, 1)); err == nil {
		t.Error("negative time accepted")
	}
}

func TestPremiseValidates(t *testing.T) {
	bad := stmt(listSet("A", 0), listSet("B", 1), "1", "1")
	bad.Prob = prob.NewRat(3, 2)
	if _, err := Premise(bad, "x"); err == nil {
		t.Error("invalid premise accepted")
	}
}

func TestProofPremisesOrder(t *testing.T) {
	u := testUniverse()
	s0, s1, s2 := listSet("S0", 0), listSet("S1", 1), listSet("S2", 2)
	p1 := mustPremise(t, stmt(s0, s1, "1", "1"))
	p2 := mustPremise(t, stmt(s1, s2, "1", "1"))
	c, err := Compose(u, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Weaken(c, listSet("X", 5))
	if err != nil {
		t.Fatal(err)
	}
	leaves := w.Premises()
	if len(leaves) != 2 || leaves[0] != p1 || leaves[1] != p2 {
		t.Errorf("premises = %v", leaves)
	}
}
