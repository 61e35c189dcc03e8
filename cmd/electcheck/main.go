// Command electcheck runs the second case study: randomized leader
// election by coin flipping, analyzed with the same proof method as the
// Lehmann–Rabin algorithm — per-level arrow statements, Proposition 3.2
// weakening, Theorem 3.4 composition, and an expected-time bound from
// per-level retry loops, each validated against the exact worst case of
// the digitized Unit-Time product. The product is generated on the fly
// into compressed-sparse-row form (sharing the Monte Carlo engine's
// compiled transition cache) and solved by -workers parallel sweeps, so
// products of millions of states stay exact; -mem-budget caps the
// resident transition structure.
//
// With -sample, the exact analysis is cross-validated by dense-time Monte
// Carlo: the requested number of election runs is sharded across a worker
// pool (-workers) by the parallel engine in internal/sim, and the sampled
// expected election time is compared against the derived bound. For a
// fixed -seed the sampled estimate is bit-identical for any worker count.
//
// The sampling stage is resilient: SIGINT/SIGTERM or an expired -budget
// drains in-flight chunks and prints the partial estimate with its
// completed-trial count; -checkpoint/-resume persist and restore progress
// bit-identically, and -quarantine tolerates panicking trials (each
// recorded with a single-RunOnce repro seed).
//
// The run is observable with the same flags as lrsim: -progress for a
// live sampling progress line, -manifest for a JSONL run manifest,
// -metrics-out for a final metrics snapshot, -pprof for live profiling,
// -trace-out for a JSONL trace (one span per sampling chunk under a root
// job span) that cmd/simtrace merges into a timeline. Those run-shape
// flags and their plumbing come from internal/mcrun, the harness shared
// with lrsim and simd, and the sampled estimate equals the line
// `simd local -model election -estimator timetotarget` prints for the
// same size, trial budget and seed.
//
// Usage:
//
//	electcheck [-n procs] [-k steps-per-window] [-mem-budget bytes] \
//	           [-sample trials] [-workers N] [-seed 1] \
//	           [-budget 10m] [-checkpoint state.json] [-resume state.json] \
//	           [-keep 3] [-quarantine N] [-trial-timeout 30s] \
//	           [-progress 2s] [-manifest run.jsonl] [-trace-out run.trace] \
//	           [-metrics-out metrics.json] [-pprof localhost:6060] [-nocompile]
//
// The sampled model is compiled (sim.Compile) before the run; -nocompile
// disables the transition cache for debugging or perf comparison. The
// printed estimate is byte-identical either way for the same seed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/election"
	"repro/internal/mcrun"
	"repro/internal/obs/span"
	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "electcheck:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("electcheck", flag.ContinueOnError)
	n := fs.Int("n", 4, "number of processes")
	k := fs.Int("k", 1, "steps per process per unit-time window")
	sample := fs.Int("sample", 0, "also run this many dense-time Monte Carlo election trials (0 = off)")
	memBudget := fs.Int64("mem-budget", 0, "abort exact enumeration beyond this many bytes of transition structure (0 = unlimited)")
	rf := mcrun.Register(fs)
	fs.Lookup("workers").Usage = "worker goroutines for the exact-engine sweeps and for sharding -sample trials (0 = all CPUs; results are identical for any value)"
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *n <= 0:
		return mcrun.UsageError(fs, "-n must be positive, got %d", *n)
	case *k <= 0:
		return mcrun.UsageError(fs, "-k must be positive, got %d", *k)
	case *sample < 0:
		return mcrun.UsageError(fs, "-sample must be >= 0, got %d", *sample)
	case *memBudget < 0:
		return mcrun.UsageError(fs, "-mem-budget must be >= 0, got %d", *memBudget)
	}

	r, err := mcrun.Start(fs, rf, "electcheck", *sample,
		span.Int("n", *n), span.Int("k", *k), span.Int("sample", *sample))
	if err != nil {
		return err
	}
	return r.Finish(analysis(ctx, r, *n, *k, *sample, *memBudget))
}

func analysis(ctx context.Context, r *mcrun.Run, n, k, sample int, memBudget int64) error {
	ctx, cancel := mcrun.Context(ctx, r.Budget)
	defer cancel()

	fmt.Printf("coin-flipping leader election: n=%d, digitized Unit-Time with k=%d\n", n, k)
	a, err := election.NewAnalysisOpts(n, k, election.Opts{Workers: r.Workers, MemBudget: memBudget})
	if err != nil {
		return err
	}
	fmt.Printf("enumerated product: %d states\n\n", a.Index.Len())

	fmt.Println("Per-level arrows (round rule), worst case over all digitized adversaries:")
	results, err := a.CheckLevels()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "statement\tclaimed p\tmeasured worst p\tverdict")
	allHold := true
	for _, r := range results {
		verdict := "HOLDS"
		if !r.Holds {
			verdict = "FAILS"
			allHold = false
		}
		fmt.Fprintf(tw, "%s --%v--> %s\t%v\t%v\t%s\n",
			r.Stmt.From.Name, r.Stmt.Time, r.Stmt.To.Name, r.Stmt.Prob, r.WorstProb, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	proof, err := a.BuildProof()
	if err != nil {
		return err
	}
	fmt.Println("\nComposed derivation:")
	fmt.Print(proof.Render())

	bound, err := a.ExpectedTimeBound()
	if err != nil {
		return err
	}
	worst, err := a.WorstExpectedTime()
	if err != nil {
		return err
	}
	fmt.Printf("\nExpected election time: derived bound Σ 2/p_k = %v ≈ %.4f; measured worst case %.4f\n",
		bound, bound.Float64(), worst)

	if sample > 0 {
		var model sched.Model[election.State]
		model, err = election.New(n)
		if err != nil {
			return err
		}
		if !r.NoCompile {
			model = sim.Compile[election.State](model)
		}
		if err := r.LoadCheckpoints(); err != nil {
			return err
		}
		const label = "sample"
		sum, rep, err := sim.EstimateTimeToTargetParallel[election.State](ctx, model,
			func() sim.Policy[election.State] { return sim.Slowest[election.State]() },
			election.State.HasLeader, sample,
			sim.Options[election.State]{}, r.Stage(label))
		r.StageDone(label, sum.String(), rep, err)
		if errors.Is(err, sim.ErrInterrupted) {
			fmt.Printf("\nMonte Carlo cross-check interrupted: %s\n", rep)
			if rep.Completed > 0 {
				fmt.Printf("partial time to leader: %s (no bound verdict from a partial sample)\n", sum.String())
			}
			r.ResumeHint()
			return fmt.Errorf("interrupted after %d/%d sampled trials: %w", rep.Completed, rep.Total, context.Cause(ctx))
		}
		if err != nil {
			return err
		}
		mean, err := sum.Mean()
		if err != nil {
			return err
		}
		fmt.Printf("\nMonte Carlo cross-check (%d dense-time trials, slowest scheduler): time to leader %s\n",
			sample, sum.String())
		if mean > bound.Float64() {
			return fmt.Errorf("sampled mean election time %.4f exceeds the derived bound %.4f", mean, bound.Float64())
		}
	}

	if !allHold {
		return fmt.Errorf("some level statements fail")
	}
	return nil
}
