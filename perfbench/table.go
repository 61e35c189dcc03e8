package main

// paper-table: the whole lrcheck pipeline on the Lehmann–Rabin ring,
// n=4, k=1 — explore, the five Section 6.2 arrows, the composed
// derivation, the direct check of T --13,1/8--> C, the expected-time
// bounds and the qualitative baseline. No trial loop and no fabric: the
// explorer and the exact solvers do all the work. The input has no
// random part, so the seed changes nothing here.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/sched"
	"repro/internal/sim"
)

const (
	tableN, tableK = 4, 1
	// engineWorkers is the explore/solver and trial-engine parallelism of
	// every workload: one per CPU of the 2-CPU reference machine.
	engineWorkers = 2
)

// tableWant is the paper table at n=4, k=1 — every value the run checks.
var tableWant = struct {
	states             int
	arrows             []string // worst-case p, in PaperStatements order
	derived, direct    string
	loop, bound        string
	worst, best        string // %.4f
	tStates, almostSur int
}{
	states:  206254,
	arrows:  []string{"1", "1", "7/8", "1/2", "1"},
	derived: "1/8", direct: "63/64",
	loop: "60", bound: "63",
	worst: "8.2411", best: "7.5714",
	tStates: 205453, almostSur: 205453,
}

// tableClaims is the number of claims one table checks: the state count,
// five arrows, the derived and the direct composed claim, the recurrence
// loop and bound, worst and best expected time, the qualitative baseline.
const tableClaims = 13

// arrowMetrics names the per-arrow timings in PaperStatements order.
var arrowMetrics = []string{"core.arrow.A3_s", "core.arrow.A15_s", "core.arrow.A14_s", "core.arrow.A11_s", "core.arrow.A1_s"}

func runPaperTable(_ context.Context, cfg config) (*outcome, error) {
	res := &outcome{layers: newLayers(), rate: "table_s"}
	err := loop(cfg, func(i int) error {
		setup, err := setupTime(buildTableModel)
		if err != nil {
			return err
		}
		res.setup = append(res.setup, setup)
		traced := cfg.trace && i%2 == 1
		var l *layers
		if traced {
			l = res.layers
		}
		res.attempted += tableClaims
		secs, err := timed(func() error { return paperTable(l) })
		if err != nil {
			return err
		}
		if traced {
			res.traced = append(res.traced, secs)
		} else {
			res.jobs = append(res.jobs, secs)
		}
		fmt.Fprintf(cfg.out, "job %d traced=%t table_s=%.4f\n", i, traced, secs)
		return nil
	})
	return res, err
}

// buildTableModel builds the ring, its compiled transition cache and the
// scheduler product — the model set-up NewAnalysisOpts performs before
// it explores.
func buildTableModel() error {
	m, err := dining.New(tableN)
	if err != nil {
		return err
	}
	_, err = sched.Product[dining.State](sim.Compile[dining.State](m), sched.Config{StepsPerWindow: tableK})
	return err
}

// paperTable runs and checks one table. With l non-nil it times every
// stage into l, checking the arrows one core.CheckStatement at a time
// (what CheckPaperChain's core.CheckAll does) so each has its own time.
func paperTable(l *layers) error {
	stage := func(name string, t0 time.Time) {
		if l != nil {
			l.set(name, time.Since(t0).Seconds())
		}
	}
	t0 := time.Now()
	a, err := dining.NewAnalysisOpts(tableN, tableK, dining.Opts{Workers: engineWorkers})
	if err != nil {
		return fmt.Errorf("exploring: %w", err)
	}
	explore := time.Since(t0).Seconds()
	states := a.Index.Len()
	if states != tableWant.states {
		return mismatchf("explored %d states, want %d", states, tableWant.states)
	}
	if l != nil {
		csr := a.MDP.CSR()
		l.set("mdp.explore_s", explore)
		l.set("mdp.states", float64(states))
		l.set("mdp.branches", float64(csr.NumBranches()))
		l.set("mdp.bytes_per_state", float64(csr.MemFootprint())/float64(states))
		l.set("mdp.states_per_s", float64(states)/explore)
	}

	t0 = time.Now()
	var results []core.CheckResult[dining.PState]
	if l == nil {
		results, err = a.CheckPaperChain()
	} else {
		for i, st := range a.PaperStatements() {
			ti := time.Now()
			r, cerr := core.CheckStatement(a.MDP, a.Index, st)
			if cerr != nil {
				err = cerr
				break
			}
			stage(arrowMetrics[i], ti)
			results = append(results, r)
		}
	}
	if err != nil {
		return fmt.Errorf("checking arrows: %w", err)
	}
	stage("core.arrows_s", t0)
	if len(results) != len(tableWant.arrows) {
		return mismatchf("%d arrows checked, want %d", len(results), len(tableWant.arrows))
	}
	for i, r := range results {
		if got := r.WorstProb.String(); !r.Holds || got != tableWant.arrows[i] {
			return mismatchf("%s: worst p %s (holds=%t), want %s", r.Stmt, got, r.Holds, tableWant.arrows[i])
		}
	}

	t0 = time.Now()
	proof, err := a.BuildPaperProof()
	if err != nil {
		return fmt.Errorf("building proof: %w", err)
	}
	stage("core.proof_s", t0)
	if got := proof.Stmt.Prob.String(); got != tableWant.derived {
		return mismatchf("derived composed p %s, want %s", got, tableWant.derived)
	}

	t0 = time.Now()
	direct, err := core.CheckStatement(a.MDP, a.Index, a.ComposedStatement())
	if err != nil {
		return fmt.Errorf("checking composed claim: %w", err)
	}
	stage("core.composed_s", t0)
	if got := direct.WorstProb.String(); !direct.Holds || got != tableWant.direct {
		return mismatchf("direct composed worst p %s (holds=%t), want %s", got, direct.Holds, tableWant.direct)
	}

	loopTime, err := a.RetryLoop().ExpectedTime()
	if err != nil {
		return fmt.Errorf("recurrence: %w", err)
	}
	bound, err := a.ExpectedTimeBound()
	if err != nil {
		return fmt.Errorf("recurrence bound: %w", err)
	}
	if loopTime.String() != tableWant.loop || bound.String() != tableWant.bound {
		return mismatchf("recurrence loop %v bound %v, want %s and %s", loopTime, bound, tableWant.loop, tableWant.bound)
	}

	t0 = time.Now()
	worst, _, err := a.WorstExpectedTime()
	if err != nil {
		return fmt.Errorf("worst expected time: %w", err)
	}
	best, err := a.BestExpectedTime()
	if err != nil {
		return fmt.Errorf("best expected time: %w", err)
	}
	stage("mdp.expected_s", t0)
	if w, b := fmt.Sprintf("%.4f", worst), fmt.Sprintf("%.4f", best); w != tableWant.worst || b != tableWant.best {
		return mismatchf("expected time worst %s best %s, want %s and %s", w, b, tableWant.worst, tableWant.best)
	}

	t0 = time.Now()
	total, sure := a.QualitativeProgress()
	stage("mdp.qualitative_s", t0)
	if total != tableWant.tStates || sure != tableWant.almostSur {
		return mismatchf("qualitative %d/%d, want %d/%d", sure, total, tableWant.almostSur, tableWant.tStates)
	}
	return nil
}
