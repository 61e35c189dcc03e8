// Command lrsim runs the dense-time Monte Carlo experiments for the
// Lehmann–Rabin reproduction: for each requested ring size and scheduling
// policy it estimates the probability that some process enters its
// critical region within a deadline (the paper claims at least 1/8 within
// time 13 from any trying state), and the expected time to the critical
// region (the paper bounds it by 63).
//
// Unlike cmd/lrcheck, which quantizes the adversary class and computes
// exact worst cases, lrsim explores the paper's dense-time Unit-Time
// schema directly, one programmable adversary at a time — including a
// malicious history-aware scheduler that manufactures resource conflicts.
//
// Trials are sharded across a worker pool (-workers, default all CPUs) by
// the parallel engine in internal/sim; for a fixed -seed the estimates are
// bit-identical whatever the worker count, so -workers only changes
// wall-clock time.
//
// The run is resilient: SIGINT/SIGTERM or an expired -budget drains
// in-flight work and prints partial estimates (with the trial count
// actually completed) instead of discarding everything; -checkpoint
// persists chunk-granularity progress as a JSON state file, and -resume
// continues from one bit-identically — a resumed run prints exactly the
// estimates an uninterrupted run would have. Panicking trials are
// quarantined up to -quarantine, each recorded with the RNG seed that
// replays the crash in a single sim.RunOnce.
//
// The run is observable: -progress prints a live line (trials/sec, ETA,
// running estimate with confidence half-width, quarantine count,
// checkpoint age) at the given interval; -manifest records a JSONL event
// log plus a final JSON summary (seed, every flag value, build version,
// per-phase timings, metrics snapshot) that documents the run and replays
// it (obs.ReplayArgs); -metrics-out dumps the final metrics registry as
// JSON; -pprof serves net/http/pprof, expvar and the live metrics on the
// given address for the duration of the run; -trace-out records a span
// per sweep chunk (stamped with its stage label) under one root job span
// as a JSONL trace that cmd/simtrace merges into a timeline. All of it
// rides the engine's telemetry hook, which costs nothing when no flag is
// set.
//
// These run-shape flags, their validation, the observability sinks, the
// signal-plus-budget context, the state file and the quarantine report
// come from internal/mcrun, the harness shared with electcheck -sample
// and simd; the -policies names come from dining.Policy, the table simd
// jobs and lrtrace use. For the same job and seed, a row prints exactly
// the estimates `simd local` prints.
//
// Usage:
//
//	lrsim [-sizes 3,5,8] [-policies slowest,random,spiteful] \
//	      [-trials 2000] [-within 13] [-seed 1] [-workers N] \
//	      [-budget 10m] [-checkpoint state.json] [-resume state.json] \
//	      [-keep 3] [-quarantine N] [-trial-timeout 30s] \
//	      [-progress 2s] [-manifest run.jsonl] [-trace-out run.trace] \
//	      [-metrics-out metrics.json] [-pprof localhost:6060] [-nocompile]
//
// The model is compiled once per ring size (sim.Compile: a shared
// transition cache plus pre-resolved samplers) and reused across every
// estimate, so later stages run fully warm; -nocompile switches the
// cache off for debugging or perf comparison. The printed estimates are
// byte-identical either way for the same seed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/dining"
	"repro/internal/mcrun"
	"repro/internal/obs/span"
	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lrsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("lrsim", flag.ContinueOnError)
	sizes := fs.String("sizes", "3,5,8", "comma-separated ring sizes")
	policies := fs.String("policies", "slowest,random,spiteful", "comma-separated policies (slowest, random, spiteful, paced:<alpha>)")
	trials := fs.Int("trials", 2000, "Monte Carlo trials per configuration")
	within := fs.Float64("within", 13, "deadline for the probability estimate")
	curveMax := fs.Int("curve", 0, "also print the empirical reach-probability curve up to this deadline")
	rf := mcrun.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *trials <= 0:
		return mcrun.UsageError(fs, "-trials must be positive, got %d", *trials)
	case !(*within > 0): // also rejects NaN
		return mcrun.UsageError(fs, "-within must be positive, got %g", *within)
	case *curveMax < 0:
		return mcrun.UsageError(fs, "-curve must be >= 0, got %d", *curveMax)
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		return mcrun.UsageError(fs, "%v", err)
	}
	var pols []policy
	for _, name := range strings.Split(*policies, ",") {
		name = strings.TrimSpace(name)
		mk, err := dining.Policy(name)
		if err != nil {
			return mcrun.UsageError(fs, "%v", err)
		}
		pols = append(pols, policy{name, mk})
	}

	stages := 2 * len(ns) * len(pols)
	if *curveMax > 0 {
		stages++
	}
	r, err := mcrun.Start(fs, rf, "lrsim", stages**trials,
		span.Str("sizes", *sizes), span.Str("policies", *policies), span.Int("trials", *trials))
	if err != nil {
		return err
	}
	return r.Finish(experiments(ctx, r, ns, pols, *trials, *within, *curveMax))
}

// policy is a resolved -policies entry.
type policy struct {
	name string
	mk   func() sim.Policy[dining.State]
}

func experiments(ctx context.Context, r *mcrun.Run, ns []int, pols []policy, trials int, within float64, curveMax int) error {
	ctx, cancel := mcrun.Context(ctx, r.Budget)
	defer cancel()
	if err := r.LoadCheckpoints(); err != nil {
		return err
	}

	// One compiled model per ring size, shared by every stage that uses
	// that size (reach, time, curve): the transition cache built during
	// the first estimate serves the rest warm. With -nocompile the raw
	// model is used and RunParallel is told not to compile it either.
	models := map[int]sched.Model[dining.State]{}
	newModel := func(n int) (sched.Model[dining.State], error) {
		if m, ok := models[n]; ok {
			return m, nil
		}
		var m sched.Model[dining.State]
		m, err := dining.New(n)
		if err != nil {
			return nil, err
		}
		if !r.NoCompile {
			m = sim.Compile[dining.State](m)
		}
		models[n] = m
		return m, nil
	}

	fmt.Printf("Lehmann–Rabin Monte Carlo: start = all processes trying (flip-ready), trials = %d\n", trials)
	fmt.Printf("paper claims: P[reach C within 13] >= 1/8 = 0.125 from any trying state; E[time to C] <= 63\n\n")

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "n\tpolicy\tP[C within %g] (95%% Wilson)\tE[time to C] (95%% CI)\n", within)

	// interrupted finalizes a partially completed run: flush what we
	// have, point at the resume token, and report the cancellation cause.
	interrupted := func(stage string, rep sim.RunReport) error {
		tw.Flush()
		fmt.Printf("\ninterrupted during %s: %s\n", stage, rep)
		r.ResumeHint()
		return fmt.Errorf("interrupted during %s after %d/%d trials: %w",
			stage, rep.Completed, rep.Total, context.Cause(ctx))
	}

	for _, n := range ns {
		for _, pol := range pols {
			name, mk := pol.name, pol.mk
			model, err := newModel(n)
			if err != nil {
				return err
			}
			opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
			stage := fmt.Sprintf("n=%d/%s", n, name)
			probEst, probRep, err := sim.EstimateReachProbParallel[dining.State](ctx, model, mk, dining.InC,
				within, trials, opts, r.Stage(stage+"/reach"))
			r.StageDone(stage+"/reach", probEst.String(), probRep, err)
			if errors.Is(err, sim.ErrInterrupted) {
				if probRep.Completed > 0 {
					fmt.Fprintf(tw, "%d\t%s\t%s [partial: %s]\t-\n", n, name, probEst.String(), probRep)
				}
				return interrupted(stage+"/reach", probRep)
			}
			if err != nil {
				return err
			}
			timeEst, timeRep, err := sim.EstimateTimeToTargetParallel[dining.State](ctx, model, mk, dining.InC,
				trials, opts, r.Stage(stage+"/time"))
			r.StageDone(stage+"/time", timeEst.String(), timeRep, err)
			if errors.Is(err, sim.ErrInterrupted) {
				fmt.Fprintf(tw, "%d\t%s\t%s\t%s [partial: %s]\n", n, name, probEst.String(), timeEst.String(), timeRep)
				return interrupted(stage+"/time", timeRep)
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\n", n, name, probEst.String(), timeEst.String())
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if curveMax > 0 {
		n := ns[0]
		name, mk := pols[0].name, pols[0].mk
		model, err := newModel(n)
		if err != nil {
			return err
		}
		deadlines := make([]float64, curveMax)
		for i := range deadlines {
			deadlines[i] = float64(i + 1)
		}
		stage := fmt.Sprintf("n=%d/%s/curve@%d", n, name, curveMax)
		curve, curveRep, err := sim.EstimateCurveParallel[dining.State](ctx, model, mk, dining.InC, deadlines, trials,
			sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true},
			r.Stage(stage))
		r.StageDone(stage, fmt.Sprintf("curve over %d deadlines", len(curve.Deadlines)), curveRep, err)
		partial := ""
		if errors.Is(err, sim.ErrInterrupted) {
			if curveRep.Completed == 0 {
				return interrupted(stage, curveRep)
			}
			partial = fmt.Sprintf(" [partial: %s]", curveRep)
		} else if err != nil {
			return err
		}
		fmt.Printf("\nempirical P[C within t] at n=%d under %s (the Monte Carlo analogue of lrcheck -curve)%s:\n", n, name, partial)
		for i := range curve.Deadlines {
			est, lo, hi, err := curve.Point(i)
			if err != nil {
				return err
			}
			fmt.Printf("  t=%-4g %.4f [%.4f, %.4f]\n", curve.Deadlines[i], est, lo, hi)
		}
		if partial != "" {
			return interrupted(stage, curveRep)
		}
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad ring size %q: %v", part, err)
		}
		if _, err := dining.New(n); err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
