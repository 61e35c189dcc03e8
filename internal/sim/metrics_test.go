package sim

// Tests for the Metrics telemetry hook: the engine must report exactly the
// run that happened (one TrialDone per trial, balanced chunk claims,
// quarantine/restore/checkpoint events matching the RunReport), must not
// change the estimate, and must not allocate on the hot path.

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// countingMetrics is a zero-allocation Metrics used to check the engine's
// call pattern; every field is atomic so any worker count is safe.
type countingMetrics struct {
	trials, quarantined, chunks, restored, checkpoints atomic.Int64
	chunkTrials, reached, events                       atomic.Int64
	active, maxActive                                  atomic.Int64
	negSeconds, stalled                                atomic.Int64
}

func (c *countingMetrics) TrialDone(trial, events int, seconds float64, reached bool, reachedAt float64) {
	c.trials.Add(1)
	c.events.Add(int64(events))
	if reached {
		c.reached.Add(1)
	}
	if seconds < 0 {
		c.negSeconds.Add(1)
	}
}
func (c *countingMetrics) TrialQuarantined(trial int) { c.quarantined.Add(1) }
func (c *countingMetrics) TrialStalled(trial int)     { c.stalled.Add(1) }
func (c *countingMetrics) ChunkActive(delta int) {
	now := c.active.Add(int64(delta))
	for {
		max := c.maxActive.Load()
		if now <= max || c.maxActive.CompareAndSwap(max, now) {
			return
		}
	}
}
func (c *countingMetrics) ChunkDone(chunk, trials int) {
	c.chunks.Add(1)
	c.chunkTrials.Add(int64(trials))
}
func (c *countingMetrics) TrialsRestored(n int) { c.restored.Add(int64(n)) }
func (c *countingMetrics) CheckpointSaved()     { c.checkpoints.Add(1) }

// TestMetricsCallPattern checks that, for every worker count, the hook
// sees exactly the run that happened — one TrialDone per trial, balanced
// chunk claims, chunk trial counts summing to the budget — and that the
// estimate is bit-identical to an uninstrumented run.
func TestMetricsCallPattern(t *testing.T) {
	const trials = 200
	ref, refRep, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, trials,
		Options[flipState]{}, ParallelOptions{Workers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		var cm countingMetrics
		got, rep, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, trials,
			Options[flipState]{}, ParallelOptions{Workers: workers, Seed: 9, Metrics: &cm})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != ref || rep.Completed != refRep.Completed {
			t.Errorf("workers=%d: instrumented estimate %+v differs from reference %+v", workers, got, ref)
		}
		if n := cm.trials.Load(); n != trials {
			t.Errorf("workers=%d: TrialDone called %d times, want %d", workers, n, trials)
		}
		if n := cm.chunkTrials.Load(); n != trials {
			t.Errorf("workers=%d: ChunkDone trials sum = %d, want %d", workers, n, trials)
		}
		wantChunks := int64((trials + parallelChunkSize - 1) / parallelChunkSize)
		if n := cm.chunks.Load(); n != wantChunks {
			t.Errorf("workers=%d: ChunkDone called %d times, want %d", workers, n, wantChunks)
		}
		if a := cm.active.Load(); a != 0 {
			t.Errorf("workers=%d: ChunkActive unbalanced: %d", workers, a)
		}
		if max := cm.maxActive.Load(); max < 1 || max > int64(workers) {
			t.Errorf("workers=%d: max in-flight chunks = %d, want 1..%d", workers, max, workers)
		}
		if cm.reached.Load() == 0 || cm.events.Load() == 0 {
			t.Errorf("workers=%d: outcome fields not forwarded (reached=%d events=%d)",
				workers, cm.reached.Load(), cm.events.Load())
		}
		if cm.negSeconds.Load() != 0 {
			t.Errorf("workers=%d: negative trial wall-times reported", workers)
		}
		if cm.quarantined.Load() != 0 || cm.restored.Load() != 0 || cm.checkpoints.Load() != 0 {
			t.Errorf("workers=%d: spurious quarantine=%d/restore=%d/checkpoint=%d calls",
				workers, cm.quarantined.Load(), cm.restored.Load(), cm.checkpoints.Load())
		}
	}
}

// TestMetricsQuarantineCheckpointRestore drives the remaining hook methods:
// a panicking-policy run under a checkpoint sink must report every
// quarantine and every sink call, and resuming from its final token must
// report the restored trials without re-running any.
func TestMetricsQuarantineCheckpointRestore(t *testing.T) {
	const trials = 2000
	mk := mkPanicky(0.01)

	var cm countingMetrics
	saved := 0
	_, rep, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mk, heads, 2, trials,
		Options[flipState]{}, ParallelOptions{
			Workers: 2, Seed: 9, MaxPanics: trials, Metrics: &cm,
			CheckpointSink: func(*Checkpoint) error { saved++; return nil },
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined == 0 {
		t.Fatal("injected panics did not fire; test is vacuous")
	}
	if got := cm.quarantined.Load(); got != int64(rep.Quarantined) {
		t.Errorf("TrialQuarantined called %d times, report says %d", got, rep.Quarantined)
	}
	if got := cm.trials.Load(); got != int64(rep.Completed) {
		t.Errorf("TrialDone called %d times, report says %d completed", got, rep.Completed)
	}
	if got := cm.checkpoints.Load(); got != int64(saved) || saved == 0 {
		t.Errorf("CheckpointSaved called %d times, sink ran %d times", got, saved)
	}

	// Resume from the completed run's token: everything restores (the
	// engine restores whole chunks, quarantined trials included), nothing
	// re-runs, and no checkpoints are written.
	var cm2 countingMetrics
	_, rep2, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mk, heads, 2, trials,
		Options[flipState]{}, ParallelOptions{
			Workers: 2, Seed: 9, MaxPanics: trials, Metrics: &cm2, Resume: rep.Checkpoint,
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := cm2.restored.Load(); got != int64(rep2.Resumed) || got != trials {
		t.Errorf("TrialsRestored = %d, report.Resumed = %d, want %d", got, rep2.Resumed, trials)
	}
	if got := cm2.trials.Load(); got != 0 {
		t.Errorf("resumed run re-ran %d trials", got)
	}
	if got := cm2.checkpoints.Load(); got != 0 {
		t.Errorf("resumed run reported %d checkpoint saves", got)
	}
}

// TestMetricsInterruptedRun: a cancelled run still balances ChunkActive
// and reports only the trials that actually completed.
func TestMetricsInterruptedRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var cm countingMetrics
	_, rep, err := EstimateReachProbParallel[flipState](ctx, flipper{}, mkSlowest, heads, 2, 500,
		Options[flipState]{}, ParallelOptions{Workers: 2, Seed: 1, Metrics: &cm})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if cm.active.Load() != 0 {
		t.Errorf("ChunkActive unbalanced after interrupt: %d", cm.active.Load())
	}
	if got := cm.trials.Load(); got != int64(rep.Completed) {
		t.Errorf("TrialDone count %d != report.Completed %d", got, rep.Completed)
	}
}

// TestMetricsAddZeroAllocs is the zero-overhead acceptance criterion:
// enabling a conforming (atomic-only) Metrics implementation must add no
// per-trial allocations, and with Metrics nil the hot path pays only a nil
// check. The comparison is whole-run: fixed per-run overhead (goroutines,
// chunk slices, checkpoint records) is identical on both sides, so any
// per-trial leak shows up as a delta proportional to the trial count.
func TestMetricsAddZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const trials = 256
	run := func(met Metrics) func() {
		return func() {
			_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, trials,
				Options[flipState]{}, ParallelOptions{Workers: 1, Seed: 1, Metrics: met})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// The runtime's own bookkeeping (goroutine start, parking on the
	// WaitGroup) adds an allocation or two to a batch now and then, on
	// either side. Taking each side's minimum over several interleaved
	// batches removes that noise; a per-trial leak is in every batch.
	var cm countingMetrics
	disabled, enabled := math.Inf(1), math.Inf(1)
	for range 5 {
		disabled = min(disabled, testing.AllocsPerRun(10, run(nil)))
		enabled = min(enabled, testing.AllocsPerRun(10, run(&cm)))
	}
	if delta := enabled - disabled; delta > 1 {
		t.Errorf("enabling metrics added %.1f allocs per run (%.4f/trial), want 0",
			delta, delta/trials)
	}
}

func TestRunReportString(t *testing.T) {
	cases := []struct {
		rep  RunReport
		want string
	}{
		{RunReport{Total: 100, Completed: 100}, "100/100 trials"},
		{RunReport{Total: 100, Completed: 100, Resumed: 40}, "100/100 trials (40 restored from checkpoint)"},
		{RunReport{Total: 100, Completed: 98, Quarantined: 2}, "98/100 trials (2 panicking trials quarantined)"},
		{RunReport{Total: 100, Completed: 60, Interrupted: true}, "60/100 trials (interrupted)"},
		{RunReport{Total: 200, Completed: 120, Resumed: 64, Quarantined: 1, Interrupted: true},
			"120/200 trials (64 restored from checkpoint, 1 panicking trials quarantined, interrupted)"},
	}
	for _, c := range cases {
		if got := c.rep.String(); got != c.want {
			t.Errorf("RunReport%+v.String() = %q, want %q", c.rep, got, c.want)
		}
	}
}
