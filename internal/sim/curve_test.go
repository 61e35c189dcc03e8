package sim

import (
	"context"
	"testing"
)

func TestEstimateCurve(t *testing.T) {
	curve, _, err := EstimateCurveParallel[flipState](context.Background(), flipper{}, mkSlowest, heads,
		[]float64{3, 1, 2}, // unsorted on purpose
		3000, Options[flipState]{}, ParallelOptions{Workers: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Deadlines) != 3 || curve.Deadlines[0] != 1 || curve.Deadlines[2] != 3 {
		t.Fatalf("deadlines = %v, want sorted", curve.Deadlines)
	}
	// Under the slowest policy, P[heads by t] = 1 - 2^-t for integer t.
	want := []float64{0.5, 0.75, 0.875}
	var prev float64
	for i := range curve.Deadlines {
		est, lo, hi, err := curve.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		if want[i] < lo-0.03 || want[i] > hi+0.03 {
			t.Errorf("deadline %g: estimate %g [%g, %g] far from %g",
				curve.Deadlines[i], est, lo, hi, want[i])
		}
		if est < prev {
			t.Errorf("curve not monotone at index %d", i)
		}
		prev = est
	}
}

func TestEstimateCurveEmpty(t *testing.T) {
	_, _, err := EstimateCurveParallel[flipState](context.Background(), flipper{}, mkSlowest,
		func(flipState) bool { return false },
		nil, 10, Options[flipState]{}, ParallelOptions{Workers: 1, Seed: 1})
	if err == nil {
		t.Error("empty deadline list accepted")
	}
}
