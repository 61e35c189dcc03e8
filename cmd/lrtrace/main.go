// Command lrtrace runs a single execution of the Lehmann–Rabin algorithm
// under a chosen scheduling policy and pretty-prints the trace in the
// paper's Section 6.1 notation (program counters with direction arrows) —
// Figure 1 of the paper, animated.
//
// With -jsonl the trace is also streamed, step by step as it happens, to
// a JSONL file in the run-manifest schema (obs.Event with "step" records),
// so single-run traces and sweep telemetry share one set of tooling.
//
// Usage:
//
//	lrtrace [-n ring] [-policy slowest|random|spiteful|paced:<alpha>] [-seed 1] \
//	        [-until-c] [-max-events 60] [-jsonl trace.jsonl]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/dining"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lrtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lrtrace", flag.ContinueOnError)
	n := fs.Int("n", 3, "ring size")
	policy := fs.String("policy", "slowest", "slowest, random, spiteful or paced:<alpha>")
	seed := fs.Int64("seed", 1, "random seed")
	untilC := fs.Bool("until-c", true, "stop when some process enters its critical region")
	maxEvents := fs.Int("max-events", 60, "event budget")
	jsonl := fs.String("jsonl", "", "also stream the trace as JSONL (run-manifest step events) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 {
		fs.Usage()
		return fmt.Errorf("-n must be positive, got %d", *n)
	}
	if *maxEvents <= 0 {
		fs.Usage()
		return fmt.Errorf("-max-events must be positive, got %d", *maxEvents)
	}

	model := dining.MustNew(*n)
	mk, err := dining.Policy(*policy)
	if err != nil {
		return err
	}

	start := dining.AllAt(*n, dining.F)
	rec := trace.NewRecorder(start.String())
	target := dining.InC
	if !*untilC {
		target = func(dining.State) bool { return false }
	}

	// -jsonl streams each step into a manifest-schema event log as it is
	// recorded; the file is created (and the address validated) before the
	// run starts, matching the other tools' up-front flag checks.
	var mw *obs.ManifestWriter
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fs.Usage()
			return fmt.Errorf("-jsonl: %w", err)
		}
		defer f.Close()
		flagValues := map[string]string{}
		fs.VisitAll(func(fl *flag.Flag) { flagValues[fl.Name] = fl.Value.String() })
		mw = obs.NewManifestWriter(f, obs.RunMeta{
			Tool:    "lrtrace",
			Version: obs.Version(),
			Seed:    *seed,
			Options: flagValues,
		})
		rec.Stream(mw)
	}

	rng := rand.New(rand.NewSource(*seed))
	res, err := sim.RunOnce[dining.State](model, mk(), target, sim.Options[dining.State]{
		Start:     start,
		SetStart:  true,
		MaxEvents: *maxEvents,
		Observer:  trace.Observer(rec, dining.State.String),
	}, rng)
	if mw != nil {
		if cerr := mw.Close(nil, err); cerr != nil && err == nil {
			return fmt.Errorf("-jsonl: %w", cerr)
		}
	}
	if err != nil {
		return err
	}

	fmt.Printf("Lehmann–Rabin, n=%d, policy=%s, seed=%d\n\n", *n, *policy, *seed)
	fmt.Print(rec.Render())
	if res.Reached {
		fmt.Printf("\nsome process entered its critical region at time %.3f after %d events\n",
			res.ReachedAt, res.Events)
	} else {
		fmt.Printf("\nstopped after %d events at time budget; final state %v\n", res.Events, res.Final)
	}
	return nil
}
