package main

// dining-local and dining-fabric: one Monte Carlo job — the Lehmann–Rabin
// ring at n=5 under the slowest adversary, estimating P[C within 13] —
// run in-process (Runner.Estimate, what `simd local` does) and through
// the fabric (an in-process Coordinator with a durable state file,
// served over loopback HTTP to two Workers, what `simd coordinate` plus
// two `simd work` do). The fabric's result line must equal the local
// one byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dining"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/obs/span"
	"repro/internal/sched"
	"repro/internal/sim"
)

const (
	diningTrials = 200_000
	// fabricWorkers is the number of fabric workers; each runs one
	// engine goroutine, so leg B uses the same two CPUs as leg A.
	fabricWorkers = 2
)

// diningSeed1Line and diningSeed1Reached are the job's result line and
// its exact count of trials reaching C for --seed 1, recorded at the
// commit that introduced the benchmark.
const (
	diningSeed1Line    = "P[target within 13] = 0.9998 [0.9997, 0.9998] (n=200000)"
	diningSeed1Reached = 199953
)

func diningSpec(seed int64) fabric.JobSpec {
	return fabric.JobSpec{
		Model:     "dining",
		N:         5,
		Policy:    "slowest",
		Estimator: fabric.EstimatorReachProb,
		Within:    13,
		Trials:    diningTrials,
		Seed:      seed,
	}
}

// checkReport fails unless every trial of a run completed.
func checkReport(rep sim.RunReport, trials int) error {
	if rep.Completed != trials || rep.Quarantined != 0 || rep.Interrupted {
		return mismatchf("run report %s, want %d/%d trials and none quarantined", rep, trials, trials)
	}
	return nil
}

// checkSeed1 compares a line against the recorded one for --seed 1.
func checkSeed1(seed int64, got, want string) error {
	if seed == 1 && got != want {
		return mismatchf("seed 1 result %q, want the recorded %q", got, want)
	}
	return nil
}

// diningOracle computes the job's result line through the engine directly
// (sim.EstimateReachProbParallel on its own compiled model, one
// goroutine) rather than through fabric.Runner. The engine's results do
// not depend on the goroutine count, so every job must print this line.
// With l non-nil the model is wrapped in a countingModel and the run
// observed by an eventCounter, so it also yields the compile and event
// metrics of the job — and shows the wrappers leave the line unchanged.
func diningOracle(ctx context.Context, spec fabric.JobSpec, l *layers) (string, error) {
	m, err := dining.New(spec.N)
	if err != nil {
		return "", err
	}
	var model sched.Model[dining.State] = m
	var counter *countingModel[dining.State]
	events := &eventCounter{}
	popts := sim.ParallelOptions{Workers: 1, Seed: spec.Seed}
	if l != nil {
		model, counter = countModel[dining.State](m)
		popts.Metrics = events
	}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Slowest[dining.State]()) }
	t0 := time.Now()
	est, rep, err := sim.EstimateReachProbParallel(ctx, model, mk, dining.InC, spec.Within, spec.Trials,
		sim.Options[dining.State]{Start: dining.AllAt(spec.N, dining.F), SetStart: true}, popts)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return "", fmt.Errorf("oracle run: %w", err)
	}
	if err := checkReport(rep, spec.Trials); err != nil {
		return "", err
	}
	if l != nil {
		l.set("sim.events_per_trial", events.perTrial())
		l.set("sim.compile_states", counter.states())
		l.set("sim.compile_miss_s", counter.seconds())
		l.set("sim.compile_miss_share", counter.seconds()/wall)
	}
	line := fmt.Sprintf("P[target within %g] = %s", spec.Within, est.String())
	if spec.Seed == 1 && est.Successes != diningSeed1Reached {
		return "", mismatchf("seed 1: %d trials reached C, want the recorded %d", est.Successes, diningSeed1Reached)
	}
	return line, checkSeed1(spec.Seed, line, diningSeed1Line)
}

func runDiningLocal(ctx context.Context, cfg config) (*outcome, error) {
	spec := diningSpec(cfg.seed)
	res := &outcome{layers: newLayers(), rate: "trials_per_s", trialsPerJob: spec.Trials}
	var oracleLayers *layers
	if cfg.trace {
		oracleLayers = res.layers
	}
	want, err := diningOracle(ctx, spec, oracleLayers)
	if err != nil {
		return res, err
	}
	err = loop(cfg, func(i int) error {
		setup, err := setupTime(func() error {
			_, err := fabric.NewRunner(spec)
			return err
		})
		if err != nil {
			return err
		}
		res.setup = append(res.setup, setup)
		r, err := fabric.NewRunner(spec)
		if err != nil {
			return err
		}
		traced := cfg.trace && i%2 == 1
		var eng fabric.EngineHooks
		chunks := chunkTimer{l: res.layers, n: new(atomic.Int64)}
		if traced {
			eng.Spans = chunks
		}
		var line string
		var rep sim.RunReport
		res.attempted += spec.Trials
		secs, err := timed(func() (err error) {
			line, rep, err = r.Estimate(ctx, engineWorkers, eng)
			return err
		})
		if err != nil {
			return err
		}
		if err := checkReport(rep, spec.Trials); err != nil {
			return err
		}
		if line != want {
			return mismatchf("Runner.Estimate printed %q, the engine oracle %q", line, want)
		}
		if traced {
			res.traced = append(res.traced, secs)
			res.layers.set("sim.chunks", float64(chunks.n.Load()))
		} else {
			res.jobs = append(res.jobs, secs)
		}
		fmt.Fprintf(cfg.out, "job %d traced=%t job_s=%.4f trials_per_s=%.0f\n", i, traced, secs, float64(spec.Trials)/secs)
		return nil
	})
	return res, err
}

func runDiningFabric(ctx context.Context, cfg config) (*outcome, error) {
	spec := diningSpec(cfg.seed)
	res := &outcome{layers: newLayers(), rate: "fabric_trials_per_s", trialsPerJob: spec.Trials}

	// Leg A, run once: the reference line and the slowdown's base.
	r, err := fabric.NewRunner(spec)
	if err != nil {
		return res, err
	}
	var legA string
	var rep sim.RunReport
	res.attempted += spec.Trials
	legASecs, err := timed(func() (err error) {
		legA, rep, err = r.Estimate(ctx, engineWorkers, fabric.EngineHooks{})
		return err
	})
	if err != nil {
		return res, fmt.Errorf("leg A: %w", err)
	}
	if err := checkReport(rep, spec.Trials); err != nil {
		return res, err
	}
	if err := checkSeed1(spec.Seed, legA, diningSeed1Line); err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.out, "leg A job_s=%.4f trials_per_s=%.0f\n", legASecs, float64(spec.Trials)/legASecs)

	err = loop(cfg, func(i int) error {
		setup, err := setupTime(func() error {
			b, err := newLegB(ctx, spec, nil)
			if err != nil {
				return err
			}
			b.close()
			return nil
		})
		if err != nil {
			return err
		}
		res.setup = append(res.setup, setup)
		traced := cfg.trace && i%2 == 1
		var l *layers
		if traced {
			l = res.layers
		}
		b, err := newLegB(ctx, spec, l)
		if err != nil {
			return err
		}
		defer b.close()
		res.attempted += spec.Trials
		secs, err := b.run(ctx, spec, legA)
		if err != nil {
			return err
		}
		if traced {
			res.traced = append(res.traced, secs)
		} else {
			res.jobs = append(res.jobs, secs)
		}
		fmt.Fprintf(cfg.out, "job %d traced=%t job_s=%.4f fabric_trials_per_s=%.0f\n",
			i, traced, secs, float64(spec.Trials)/secs)
		return nil
	})
	if err == nil && cfg.trace {
		legB := median(res.jobs)
		res.layers.set("fabric.slowdown", legB/legASecs)
		fmt.Fprintf(cfg.out, "fabric.slowdown = leg B %.4f s / leg A %.4f s\n", legB, legASecs)
	}
	return res, err
}

// legB is one fabric run of the job: a coordinator persisting its merge
// frontier to a state file in its own temporary directory, served over
// loopback HTTP, and its workers. With layers set, the coordinator's
// handler, the workers' transport and the artifact store's filesystem
// are wrapped, and the coordinator and workers record trace spans.
type legB struct {
	coord   *fabric.Coordinator
	srv     *httptest.Server
	workers []*fabric.Worker
	dir     string

	l       *layers
	fsys    *countingFS
	meter   *rpcMeter
	tracers []*span.Tracer
	bufs    []*bytes.Buffer
}

// newLegB sets a fabric run up: everything setup_s measures.
func newLegB(ctx context.Context, spec fabric.JobSpec, l *layers) (*legB, error) {
	dir, err := os.MkdirTemp("", "perfbench-fabric-")
	if err != nil {
		return nil, err
	}
	b := &legB{dir: dir, l: l}
	store := &sim.ArtifactStore{}
	if l != nil {
		b.fsys = &countingFS{inner: fault.OS}
		store.FS = b.fsys
		b.meter = &rpcMeter{l: l}
	}
	b.coord, err = fabric.NewCoordinator(ctx, spec, fabric.CoordinatorOptions{
		StatePath: filepath.Join(dir, "state.json"),
		Store:     store,
		Tracer:    b.tracer("coord"),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := b.coord.Handler()
	if b.meter != nil {
		h = b.meter.handler(h)
	}
	b.srv = httptest.NewServer(h)
	b.workers = make([]*fabric.Worker, fabricWorkers)
	for k := range b.workers {
		base := b.srv.Client().Transport
		if b.meter != nil {
			base = b.meter.transport(base)
		}
		id := fmt.Sprintf("w%d", k+1)
		b.workers[k] = &fabric.Worker{
			Coordinator: b.srv.URL,
			ID:          id,
			Workers:     1,
			Client:      &http.Client{Timeout: 30 * time.Second, Transport: base},
			Tracer:      b.tracer(id),
		}
	}
	return b, nil
}

// tracer returns a span tracer writing to memory, or nil when untraced.
func (b *legB) tracer(service string) *span.Tracer {
	if b.l == nil {
		return nil
	}
	buf := &bytes.Buffer{}
	tr := span.New(buf, span.Options{Service: service})
	b.tracers, b.bufs = append(b.tracers, tr), append(b.bufs, buf)
	return tr
}

// close stops the server and removes the state files.
func (b *legB) close() {
	b.srv.Close()
	os.RemoveAll(b.dir)
}

// run starts the workers, waits for the job and finalizes it, checking
// the line against legA. It returns the time from the first worker's
// start through Finalize.
func (b *legB) run(ctx context.Context, spec fabric.JobSpec, legA string) (float64, error) {
	t0 := time.Now()
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, len(b.workers))
	for k, w := range b.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			werrs[k] = w.Run(wctx)
		}()
	}
	// Stop waiting if every worker gives up before the job is complete.
	go func() {
		wg.Wait()
		cancel()
	}()
	waitErr := b.coord.Wait(wctx)
	tf := time.Now()
	line, rep, ferr := b.coord.Finalize(ctx)
	finalize := time.Since(tf).Seconds()
	secs := time.Since(t0).Seconds()
	wg.Wait()
	if waitErr != nil && !b.coord.Done() {
		return secs, fmt.Errorf("leg B: waiting for the job: %w (workers: %v)", waitErr, errors.Join(werrs...))
	}
	if ferr != nil {
		return secs, fmt.Errorf("leg B: finalize: %w", ferr)
	}
	if err := errors.Join(werrs...); err != nil {
		return secs, fmt.Errorf("leg B: workers: %w", err)
	}
	if err := checkReport(rep, spec.Trials); err != nil {
		return secs, err
	}
	if line != legA {
		return secs, mismatchf("leg B printed %q, leg A %q", line, legA)
	}
	if b.l == nil {
		return secs, nil
	}

	st := b.coord.Status()
	useful := float64(st.ChunksDone) / float64(st.ChunksDone+int(st.DuplicatesDropped+st.ChunksReassigned))
	for name, v := range map[string]float64{
		"fabric.leases":              float64(st.LeasesGranted),
		"fabric.leases_expired":      float64(st.LeasesExpired),
		"fabric.duplicates":          float64(st.DuplicatesDropped),
		"fabric.useful_frac":         useful,
		"fabric.finalize_s":          finalize,
		"fabric.rpcs_lease":          float64(b.meter.calls[0].Load()),
		"fabric.rpcs_result":         float64(b.meter.calls[1].Load()),
		"fabric.rpcs_heartbeat":      float64(b.meter.calls[2].Load()),
		"fabric.bytes_up_per_trial":  float64(b.meter.bytesUp.Load()) / float64(spec.Trials),
		"sim.artifact_saves":         float64(b.fsys.saves.Load()),
		"sim.artifact_bytes_written": float64(b.fsys.bytes.Load()),
		"sim.artifact_fsyncs":        float64(b.fsys.fsyncs.Load()),
		"sim.artifact_save_s":        time.Duration(b.fsys.nanos.Load()).Seconds(),
	} {
		b.l.set(name, v)
	}
	for _, tr := range b.tracers {
		if err := tr.Close(); err != nil {
			return secs, fmt.Errorf("flushing trace: %w", err)
		}
	}
	return secs, spanMetrics(b.bufs, b.l)
}

// spanMetrics reads the coordinator's and workers' trace spans: each
// engine chunk's time, and the total span time of each phase as simtrace
// groups them.
func spanMetrics(bufs []*bytes.Buffer, l *layers) error {
	var recs []span.Record
	for _, buf := range bufs {
		dec := json.NewDecoder(buf)
		for {
			var ev struct {
				Span *span.Record `json:"span"`
			}
			if err := dec.Decode(&ev); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return fmt.Errorf("reading trace: %w", err)
			}
			if ev.Span != nil {
				recs = append(recs, *ev.Span)
			}
		}
	}
	chunks := 0
	for _, r := range recs {
		if r.Name == "chunk" {
			chunks++
			l.observe("sim.chunk_ms", float64(r.DurNs)/1e6)
		}
	}
	l.set("sim.chunks", float64(chunks))
	totals := map[string]time.Duration{}
	for _, ps := range span.BuildTimeline(recs).PhaseStats() {
		totals[ps.Phase] = ps.Total
	}
	for phase, name := range map[string]string{
		"lease-wait": "fabric.lease_wait_s",
		"compute":    "fabric.compute_s",
		"rpc":        "fabric.rpc_s",
		"merge":      "fabric.merge_s",
	} {
		l.set(name, totals[phase].Seconds())
	}
	return nil
}
