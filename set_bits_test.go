package timedpa_test

// Differential test of the membership bitsets core.Universe decides set
// relations on. For the dining ring n=3, the topology ring(3) and the
// election n=3, every registry set's bits equal Index.Mask of its
// predicate, and Subset, Equal, Count and Witness agree with a
// predicate-scan oracle over every pair of registry sets and their
// pairwise unions. The fallbacks give the predicate's answers: a union
// that mixes a materialised set with a plain one, a set materialised on
// another universe, and a statement checked on a foreign index.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/mdp"
	"repro/internal/prob"
)

// scanOracle decides set relations from predicate masks over the index,
// independently of any bits.
type scanOracle[S comparable] struct{ ix *mdp.Index[S] }

func (o scanOracle[S]) mask(a core.Set[S]) []bool { return o.ix.Mask(a.Contains) }

func (o scanOracle[S]) count(a core.Set[S]) int { return countTrue(o.mask(a)) }

func (o scanOracle[S]) witness(a, b core.Set[S]) (S, bool) {
	return o.witnessIn(o.mask(a), o.mask(b))
}

// witnessIn returns the first state in ma but not in mb.
func (o scanOracle[S]) witnessIn(ma, mb []bool) (S, bool) {
	for i := range ma {
		if ma[i] && !mb[i] {
			return o.ix.State(i), true
		}
	}
	var zero S
	return zero, false
}

func countTrue(mask []bool) int {
	n := 0
	for _, in := range mask {
		if in {
			n++
		}
	}
	return n
}

// blind returns a copy of set whose predicate fails the test when called:
// only the set's bits can answer for it.
func blind[S comparable](t *testing.T, set core.Set[S]) core.Set[S] {
	set.Pred = func(S) bool {
		t.Fatalf("predicate of materialised set %s evaluated", set.Name)
		return false
	}
	return set
}

// requireBitsMatchScan checks every registry set and pairwise union
// against the oracle, through blinded copies so no predicate runs.
func requireBitsMatchScan[S comparable](t *testing.T, u *core.Universe[S], ix *mdp.Index[S], reg map[string]core.Set[S]) {
	t.Helper()
	o := scanOracle[S]{ix}
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	sets := make([]core.Set[S], 0, len(names)*len(names))
	for _, name := range names {
		sets = append(sets, reg[name])
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			sets = append(sets, core.Union(reg[a], reg[b]))
		}
	}
	masks := make([][]bool, len(sets))
	for i, a := range sets {
		masks[i] = o.mask(a)
		if got := blind(t, a).Mask(ix); !slices.Equal(got, masks[i]) {
			t.Errorf("%s: bits differ from Index.Mask of its predicate", a.Name)
		}
		if got, want := u.Count(blind(t, a)), countTrue(masks[i]); got != want {
			t.Errorf("Count(%s) = %d, scan %d", a.Name, got, want)
		}
	}
	for i, a := range sets {
		for j, b := range sets {
			ba, bb := blind(t, a), blind(t, b)
			wantW, wantFound := o.witnessIn(masks[i], masks[j])
			gotW, gotFound := u.Witness(ba, bb)
			if gotFound != wantFound || gotW != wantW {
				t.Errorf("Witness(%s, %s) = %v, %t; scan %v, %t", a.Name, b.Name, gotW, gotFound, wantW, wantFound)
			}
			if got := u.Subset(ba, bb); got != !wantFound {
				t.Errorf("Subset(%s, %s) = %t, scan %t", a.Name, b.Name, got, !wantFound)
			}
			_, back := o.witnessIn(masks[j], masks[i])
			if got, want := u.Equal(ba, bb), !wantFound && !back; got != want {
				t.Errorf("Equal(%s, %s) = %t, scan %t", a.Name, b.Name, got, want)
			}
		}
	}
}

func TestSetBitsMatchScanDining(t *testing.T) {
	a, err := dining.NewAnalysisOpts(3, 1, dining.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	requireBitsMatchScan(t, a.Universe, a.Index, a.Sets())
}

func TestSetBitsMatchScanTopology(t *testing.T) {
	a, err := dining.NewGeneralAnalysis(dining.Ring(3), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := a.ProgressStatement(prob.FromInt(13), prob.NewRat(1, 8))
	requireBitsMatchScan(t, a.Universe, a.Index, map[string]core.Set[dining.PState]{"T": st.From, "C": st.To})
}

func TestSetBitsMatchScanElection(t *testing.T) {
	a, err := election.NewAnalysisOpts(3, 1, election.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	reg := map[string]core.Set[election.PState]{"Elected": a.Elected()}
	for k := 1; k <= 3; k++ {
		reg[fmt.Sprintf("Fresh_%d", k)] = a.Fresh(k)
	}
	requireBitsMatchScan(t, a.Universe, a.Index, reg)
}

// TestSetBitsAnyWorkerCount: materialisation fanned out over any number
// of workers yields the bits of a single-goroutine pass.
func TestSetBitsAnyWorkerCount(t *testing.T) {
	a, err := dining.NewAnalysisOpts(3, 1, dining.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer mdp.SetMinGrainForTest(1)()
	o := scanOracle[dining.PState]{a.Index}
	for _, workers := range []int{1, 2, 3, 8} {
		u := core.IndexUniverse(a.Index, workers)
		for name, set := range a.Sets() {
			plain := core.NewSet(name, set.Pred)
			if got := blind(t, u.Materialize(plain)).Mask(a.Index); !slices.Equal(got, o.mask(set)) {
				t.Errorf("workers=%d: %s bits differ from the scan", workers, name)
			}
		}
	}
}

// TestSetBitsFallbacks: sets without bits on the universe or index in
// use are decided by their predicates.
func TestSetBitsFallbacks(t *testing.T) {
	a, err := dining.NewAnalysisOpts(3, 1, dining.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	o := scanOracle[dining.PState]{a.Index}
	T, C, G := a.Set("T"), a.Set("C"), a.Set("G")

	// A union mixing a materialised set with a plain-predicate one.
	plainG := core.NewSet("G'", G.Pred)
	mixed := core.Union(T, plainG)
	full := core.Union(T, G)
	if got, want := mixed.Mask(a.Index), o.mask(full); !slices.Equal(got, want) {
		t.Error("mixed union's mask differs from the scan")
	}
	if got, want := a.Universe.Count(mixed), o.count(full); got != want {
		t.Errorf("Count(mixed) = %d, scan %d", got, want)
	}
	if !a.Universe.Equal(mixed, full) || !a.Universe.Subset(G, mixed) || a.Universe.Subset(mixed, C) {
		t.Error("mixed union's relations differ from the materialised union's")
	}
	gotW, gotFound := a.Universe.Witness(mixed, G)
	wantW, wantFound := o.witness(full, G)
	if gotW != wantW || gotFound != wantFound {
		t.Errorf("Witness(mixed, G) = %v, %t; scan %v, %t", gotW, gotFound, wantW, wantFound)
	}

	// A universe over the first half of the states: sets materialised on
	// the analysis are evaluated there, and vice versa.
	half := make([]dining.PState, a.Index.Len()/2)
	for i := range half {
		half[i] = a.Index.State(i)
	}
	other := core.NewUniverse(half)
	halfOracle := scanOracle[dining.PState]{mdp.NewIndex(half)}
	for name, set := range a.Sets() {
		if got, want := other.Count(set), halfOracle.count(set); got != want {
			t.Errorf("other universe: Count(%s) = %d, scan %d", name, got, want)
		}
		foreign := other.Materialize(core.NewSet(name, set.Pred))
		if got, want := a.Universe.Count(foreign), o.count(set); got != want {
			t.Errorf("Count of %s materialised elsewhere = %d, scan %d", name, got, want)
		}
		if got, want := foreign.Mask(a.Index), o.mask(set); !slices.Equal(got, want) {
			t.Errorf("mask of %s materialised elsewhere differs from the scan", name)
		}
		if !a.Universe.Equal(foreign, set) {
			t.Errorf("%s materialised elsewhere is not Equal to the registry set", name)
		}
	}

	// A statement over the ring's materialised sets checked on another
	// model's index matches the same statement over plain sets.
	path, err := dining.NewGeneralAnalysis(dining.Path(3), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := a.ComposedStatement()
	plain := st
	plain.From = core.NewSet(st.From.Name, st.From.Pred)
	plain.To = core.NewSet(st.To.Name, st.To.Pred)
	got, err := core.CheckStatement(path.MDP, path.Index, st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.CheckStatement(path.MDP, path.Index, plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || got.WorstState != want.WorstState {
		t.Errorf("foreign-index check:\n got %v\nwant %v", got, want)
	}
	if native, _ := path.CheckProgress(st.Time, st.Prob); native.String() != want.String() {
		t.Errorf("foreign-index check %v differs from the path's own %v", want, native)
	}
}
