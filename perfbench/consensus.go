package main

// consensus-mc: Ben-Or consensus at n=5, f=1 under the crash-timing
// adversary (CrashLastReporter over a random scheduler), estimating
// P[AllCorrectDecided within 100] from three split inputs. The raw model
// goes to every call, as consensus.TestClaim does, so every call
// compiles cold; distinct states keep growing with trials, so compile
// misses and distribution construction dominate — the opposite use of
// the compiled cache from the dining workloads.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/sched"
	"repro/internal/sim"
)

const (
	consensusN, consensusF = 5, 1
	consensusTrials        = 3_000 // per input
	consensusWithin        = 100
)

var consensusInputs = [][]uint8{{1, 0, 0, 0, 0}, {1, 1, 0, 0, 0}, {1, 1, 1, 1, 0}}

// consensusSeed1Lines are the job's result lines for --seed 1, recorded
// at the commit that introduced the benchmark.
var consensusSeed1Lines = []string{
	"inputs=[1 0 0 0 0] P[AllCorrectDecided within 100] = 1.0000 [0.9987, 1.0000] (n=3000), 3000 reached",
	"inputs=[1 1 0 0 0] P[AllCorrectDecided within 100] = 0.9990 [0.9971, 0.9997] (n=3000), 2997 reached",
	"inputs=[1 1 1 1 0] P[AllCorrectDecided within 100] = 1.0000 [0.9987, 1.0000] (n=3000), 3000 reached",
}

func runConsensus(ctx context.Context, cfg config) (*outcome, error) {
	res := &outcome{layers: newLayers(), rate: "trials_per_s", trialsPerJob: consensusTrials * len(consensusInputs)}
	var want []string
	err := loop(cfg, func(i int) error {
		setup, err := setupTime(func() error {
			_, _, err := buildConsensus()
			return err
		})
		if err != nil {
			return err
		}
		res.setup = append(res.setup, setup)
		m, starts, err := buildConsensus()
		if err != nil {
			return err
		}
		traced := cfg.trace && i%2 == 1
		var l *layers
		if traced {
			l = res.layers
		}
		res.attempted += consensusTrials * len(consensusInputs)
		var lines []string
		secs, err := timed(func() (err error) {
			lines, err = consensusJob(ctx, m, starts, cfg.seed, l)
			return err
		})
		if err != nil {
			return err
		}
		if want == nil {
			want = lines
			for _, line := range lines {
				fmt.Fprintf(cfg.out, "result %s\n", line)
			}
			for k, line := range lines {
				if err := checkSeed1(cfg.seed, line, consensusSeed1Lines[k]); err != nil {
					return err
				}
			}
		}
		for k := range lines {
			if lines[k] != want[k] {
				return mismatchf("job %d printed %q, job 0 %q", i, lines[k], want[k])
			}
		}
		if traced {
			res.traced = append(res.traced, secs)
		} else {
			res.jobs = append(res.jobs, secs)
		}
		trials := consensusTrials * len(consensusInputs)
		fmt.Fprintf(cfg.out, "job %d traced=%t job_s=%.4f trials_per_s=%.0f\n", i, traced, secs, float64(trials)/secs)
		return nil
	})
	return res, err
}

// buildConsensus builds the model and the start state of every input.
func buildConsensus() (*consensus.Model, []consensus.State, error) {
	m, err := consensus.New(consensusN, consensusF)
	if err != nil {
		return nil, nil, err
	}
	starts := make([]consensus.State, len(consensusInputs))
	for k, in := range consensusInputs {
		if starts[k], err = m.StartWith(in); err != nil {
			return nil, nil, err
		}
	}
	return m, starts, nil
}

// consensusJob estimates the claim from each start state and returns one
// line per input. Every run must complete all its trials, and no state
// any trial visits may break agreement. With l non-nil the model is
// wrapped in a countingModel and the runs observed by an eventCounter
// and a chunkTimer.
func consensusJob(ctx context.Context, m *consensus.Model, starts []consensus.State, seed int64, l *layers) ([]string, error) {
	var violations atomic.Int64
	target := func(s consensus.State) bool {
		if !s.AgreementHolds() {
			violations.Add(1)
		}
		return s.AllCorrectDecided()
	}
	mk := func() sim.Policy[consensus.State] {
		return consensus.CrashLastReporter(sim.Random[consensus.State](0))
	}
	events := &eventCounter{}
	chunks := chunkTimer{l: l, n: new(atomic.Int64)}
	var states, missNanos float64
	t0 := time.Now()
	lines := make([]string, len(starts))
	for k, start := range starts {
		var model sched.Model[consensus.State] = m
		popts := sim.ParallelOptions{Workers: engineWorkers, Seed: seed}
		var counter *countingModel[consensus.State]
		if l != nil {
			model, counter = countModel[consensus.State](m)
			popts.Metrics = events
			popts.SpanHooks = chunks
		}
		est, rep, err := sim.EstimateReachProbParallel(ctx, model, mk, target, consensusWithin, consensusTrials,
			sim.Options[consensus.State]{Start: start, SetStart: true, MaxEvents: 20000, MaxTime: consensusWithin + 1}, popts)
		if err != nil {
			return nil, fmt.Errorf("input %v: %w", consensusInputs[k], err)
		}
		if err := checkReport(rep, consensusTrials); err != nil {
			return nil, err
		}
		if counter != nil {
			states += counter.states()
			missNanos += float64(counter.nanos.Load())
		}
		lines[k] = fmt.Sprintf("inputs=%v P[AllCorrectDecided within %d] = %s, %d reached",
			consensusInputs[k], consensusWithin, est.String(), est.Successes)
	}
	if v := violations.Load(); v != 0 {
		return nil, mismatchf("%d visited states break agreement", v)
	}
	if l != nil {
		l.set("sim.chunks", float64(chunks.n.Load()))
		l.set("sim.events_per_trial", events.perTrial())
		l.set("sim.compile_states", states)
		miss := time.Duration(missNanos).Seconds()
		l.set("sim.compile_miss_s", miss)
		l.set("sim.compile_miss_share", miss/(time.Since(t0).Seconds()*engineWorkers))
	}
	return lines, nil
}
