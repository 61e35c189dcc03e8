// Command simd runs one Monte Carlo job on the distributed trial
// fabric (internal/fabric) — or locally, for the reference answer.
//
//	simd local      runs the job single-process and prints the estimate.
//	simd coordinate owns the job: it listens for workers, leases out
//	                chunk ranges, merges CRC-checked results
//	                first-valid-wins, and prints the estimate when every
//	                chunk is home. It then keeps serving for one
//	                -lease-ttl, answering Done, so a worker that first
//	                asks after the last chunk landed exits cleanly.
//	simd work       pulls leases from a coordinator, runs them through
//	                the local parallel engine, heartbeats them alive,
//	                and streams results back.
//
// The contract that makes the fabric boring to operate: for the same
// job flags and -seed, `simd coordinate` with any number of workers —
// workers crashing, leases expiring and being reassigned, results
// arriving out of order or twice — writes a stdout line byte-identical
// to `simd local`. Every trial's RNG derives from (seed, trial index)
// and the coordinator merges chunk accumulators in index order, so the
// cluster is invisible in the math.
//
// The signal context, the tracer and the quarantine report come from
// internal/mcrun, the harness shared with lrsim and electcheck -sample,
// and dining policy names resolve through dining.Policy, the table lrsim
// uses; so `simd local` prints the estimates an lrsim row prints for the
// same job and seed.
//
// Only the canonical result line goes to stdout; everything operational
// (listening address, lease traffic, partial estimates, resume hints)
// goes to stderr, so `diff` between a distributed and a local run means
// what it says.
//
// Faults are first-class: a SIGKILLed worker's chunks are reassigned at
// lease expiry; a SIGKILLed coordinator restarted with the same -state
// file resumes from its durable merge frontier and still prints the
// bit-identical line; a coordinator that loses every worker longer than
// -quorum-timeout prints the partial estimate and a resume token
// instead of hanging forever.
//
// Leases are sized from measured chunk time by default (-lease-chunks
// 0): each covers about a tenth of -lease-ttl of work at the median
// per-chunk turnaround seen so far (4 chunks before the first result),
// at most pending/(2·live workers) so no worker holds a large range at
// the end of the job. Chunks stay 64 trials and merge by index, so the
// lease size never changes the output; -lease-chunks N fixes it.
//
// Usage:
//
//	simd local      [job flags] [-workers N]
//	simd coordinate [job flags] [-listen 127.0.0.1:9777] [-addr-file F]
//	                [-state state.json] [-keep 3] [-lease-chunks 0]
//	                [-lease-ttl 3s] [-quorum-timeout 0] [-metrics-out F]
//	                [-hedge] [-hedge-factor 1.5] [-quarantine-corrupt N]
//	                [-min-worker-score S] [-max-worker-leases 2]
//	                [-max-inflight N] [-chaos-net SCRIPT]
//	simd work       -coordinator http://127.0.0.1:9777 [-id NAME]
//	                [-workers N] [-throttle 0] [-breaker-failures 5]
//	                [-breaker-cooldown 1s] [-retry-budget 0]
//	                [-chaos-net SCRIPT]
//
// Job flags (shared by local and coordinate):
//
//	-model dining|election  -n SIZE  -policy NAME  -estimator reachprob|timetotarget
//	-within T  -trials N  -seed S  -max-events N  -max-time T
//	-quarantine N
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/mcrun"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

const usage = `usage: simd <local|coordinate|work> [flags]

  simd local       run the job in this process and print the estimate
  simd coordinate  own the job; lease chunks to workers, merge results
  simd work        pull leases from a coordinator and run them

Run "simd <subcommand> -h" for that subcommand's flags.`

func run(ctx context.Context, args []string) error {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, usage)
		return errors.New("missing subcommand")
	}
	// SIGINT/SIGTERM cancel for a graceful drain; a second signal kills
	// the process the default way.
	ctx, stop := mcrun.Context(ctx, 0)
	defer stop()

	switch args[0] {
	case "local":
		return runLocal(ctx, args[1:])
	case "coordinate":
		return runCoordinate(ctx, args[1:])
	case "work":
		return runWork(ctx, args[1:])
	case "help", "-h", "-help", "--help":
		fmt.Println(usage)
		return nil
	default:
		fmt.Fprintln(os.Stderr, usage)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// jobFlags registers the shared job flags and returns a builder that
// assembles the JobSpec after parsing.
func jobFlags(fs *flag.FlagSet) func() fabric.JobSpec {
	model := fs.String("model", "dining", "model: dining or election")
	n := fs.Int("n", 5, "model size (ring size / process count)")
	policy := fs.String("policy", "slowest", "adversary policy (dining: slowest, random, spiteful, paced:<alpha>; election: slowest)")
	estimator := fs.String("estimator", "reachprob", "estimator: reachprob or timetotarget")
	within := fs.Float64("within", 13, "deadline for the reachprob estimator")
	trials := fs.Int("trials", 2000, "Monte Carlo trial budget")
	seed := fs.Int64("seed", 1, "root seed (per-trial streams derive from it; results are identical for any worker topology)")
	maxEvents := fs.Int("max-events", 0, "per-trial event cap (0 = engine default)")
	maxTime := fs.Float64("max-time", 0, "per-trial simulated-time cap (0 = engine default)")
	quarantine := fs.Int("quarantine", 0, "panicking trials tolerated per range before aborting")
	return func() fabric.JobSpec {
		return fabric.JobSpec{
			Model:     *model,
			N:         *n,
			Policy:    *policy,
			Estimator: *estimator,
			Within:    *within,
			Trials:    *trials,
			Seed:      *seed,
			MaxEvents: *maxEvents,
			MaxTime:   *maxTime,
			MaxPanics: *quarantine,
		}
	}
}

// jobLine is the canonical stdout prefix — identical for `simd local`
// and `simd coordinate` of the same job, by construction.
func jobLine(spec fabric.JobSpec) string {
	return fmt.Sprintf("%s n=%d policy=%s seed=%d trials=%d", spec.Model, spec.N, spec.Policy, spec.Seed, spec.Trials)
}

// jobAttrs is the identity attribute set stamped on root job spans, one
// vocabulary across simd local, coordinate, and the analysis tooling.
func jobAttrs(spec fabric.JobSpec) []span.Attr {
	return []span.Attr{
		span.Str("model", spec.Model),
		span.Int("n", spec.N),
		span.Str("policy", spec.Policy),
		span.Str("estimator", spec.Estimator),
		span.Int64("seed", spec.Seed),
		span.Int("trials", spec.Trials),
		span.Int("chunks", sim.NumChunks(spec.Trials)),
	}
}

// writeMetrics writes the registry snapshot as JSON to path, if set. A
// failure is reported on stderr, not returned: it must not mask the
// outcome of the run.
func writeMetrics(path string, reg *obs.Registry) {
	if path == "" {
		return
	}
	data, err := json.Marshal(reg.Snapshot())
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: writing -metrics-out: %v\n", err)
	}
}

func runLocal(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("simd local", flag.ContinueOnError)
	job := jobFlags(fs)
	workers := fs.Int("workers", 0, "engine goroutines (0 = all CPUs)")
	traceOut := fs.String("trace-out", "", "write trace spans (job + per-chunk) as JSONL to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, err := fabric.NewRunner(job())
	if err != nil {
		return err
	}
	spec := runner.Spec()
	trace, err := mcrun.OpenTrace(*traceOut, "local", jobAttrs(spec)...)
	if err != nil {
		return err
	}
	est, rep, err := runner.Estimate(ctx, *workers,
		fabric.Hooks(trace.Tracer, trace.Root.Context(), []string{"fabric_job", spec.Label()}))
	if terr := trace.End(err, span.Int("completed", rep.Completed)); err == nil {
		err = terr
	}
	fmt.Fprintf(os.Stderr, "simd: %s\n", rep)
	mcrun.ReportQuarantine("simd", "", rep)
	if errors.Is(err, sim.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "simd: interrupted: partial %s over %d/%d trials\n", est, rep.Completed, rep.Total)
		return err
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", jobLine(spec), est)
	return nil
}

func runCoordinate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("simd coordinate", flag.ContinueOnError)
	job := jobFlags(fs)
	listen := fs.String("listen", "127.0.0.1:0", "address to serve the fabric protocol on")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts and tests using -listen :0)")
	state := fs.String("state", "", "persist the merge frontier to this state file after every accepted result; restart with the same -state to resume")
	keep := fs.Int("keep", 3, "state-file generations to retain")
	leaseChunks := fs.Int("lease-chunks", 0, "chunks per lease (64 trials each); 0 = adaptive: about lease-ttl/10 of work at the measured per-chunk time, at most pending/(2·live workers), 4 until the first result")
	leaseTTL := fs.Duration("lease-ttl", 3*time.Second, "lease lifetime without a heartbeat before its chunks are reassigned")
	quorumTimeout := fs.Duration("quorum-timeout", 0, "give up (printing the partial estimate and a resume token) after this long with no worker contact (0 = wait forever)")
	metricsOut := fs.String("metrics-out", "", "write the final fabric metrics snapshot as JSON to this file")
	traceOut := fs.String("trace-out", "", "write trace spans (job, leases, RPCs, merges) as JSONL to this file")
	progress := fs.Duration("progress", 0, "report chunk-frontier progress to stderr at this interval (0 = off)")
	hedge := fs.Bool("hedge", false, "speculatively re-issue straggling leases to idle workers before TTL expiry (duplicates are free: first valid result wins)")
	hedgeFactor := fs.Float64("hedge-factor", 0, "hedge a lease once its age exceeds this multiple of the p99 per-chunk turnaround times its chunk count (0 = default 1.5)")
	quarantineCorrupt := fs.Int("quarantine-corrupt", 0, "blacklist a worker after this many corrupt uploads (0 = off)")
	minWorkerScore := fs.Float64("min-worker-score", 0, "quarantine workers whose health score falls below this floor (0 = off)")
	maxWorkerLeases := fs.Int("max-worker-leases", 0, "max concurrent leases per worker (0 = default 2)")
	maxInflight := fs.Int("max-inflight", 0, "shed lease/heartbeat/result RPCs beyond this many in flight with 429 + Retry-After (0 = unlimited)")
	chaosNet := fs.String("chaos-net", "", "inject server-side network faults per this script, e.g. 'seed=7,drop=0.1,http500=0.05,partition=300ms+500ms' (testing only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	// The metrics snapshot must land on every exit path — clean finish,
	// SIGINT/SIGTERM drain, and the -quorum-timeout degraded path — so it
	// is deferred here, before anything can fail.
	defer writeMetrics(*metricsOut, reg)

	tr, err := mcrun.OpenTracer(*traceOut, "coord")
	if err != nil {
		return err
	}
	if tr != nil {
		defer tr.Close()
	}

	opts := fabric.CoordinatorOptions{
		LeaseChunks:        *leaseChunks,
		LeaseTTL:           *leaseTTL,
		StatePath:          *state,
		Store:              &sim.ArtifactStore{Keep: *keep},
		QuorumTimeout:      *quorumTimeout,
		Metrics:            obs.NewFabricMetrics(reg),
		Tracer:             tr,
		Hedge:              *hedge,
		HedgeFactor:        *hedgeFactor,
		QuarantineCorrupt:  *quarantineCorrupt,
		MinWorkerScore:     *minWorkerScore,
		MaxLeasesPerWorker: *maxWorkerLeases,
		MaxInflightRPCs:    *maxInflight,
	}
	c, err := fabric.NewCoordinator(ctx, job(), opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	addr := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(addr+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "simd: coordinating %s on http://%s\n", jobLine(c.Job()), addr)
	var mw []func(http.Handler) http.Handler
	if *chaosNet != "" {
		script, err := fault.ParseNetScript(*chaosNet)
		if err != nil {
			ln.Close()
			return err
		}
		netw := script.Build("coord", fault.Wall)
		mw = append(mw, netw.Middleware("coord"))
		fmt.Fprintf(os.Stderr, "simd: chaos-net active on coordinator: %s\n", *chaosNet)
		defer func() {
			fmt.Fprintf(os.Stderr, "simd: chaos-net injected %d faults\n", netw.Total())
		}()
	}
	srv := obs.NewHTTPServer(c.Handler(), mw...)
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	defer srv.Close()

	if *progress > 0 {
		start := time.Now()
		rep := obs.NewFuncReporter(os.Stderr, *progress, func() string {
			st := c.Status()
			line := fmt.Sprintf("chunks %d/%d done (%d leased, %d pending), %d reassigned, %d workers live",
				st.ChunksDone, st.Chunks, st.ChunksLeased, st.ChunksPending, st.ChunksReassigned, st.WorkersLive)
			if st.ChunksDone > 0 && st.ChunksDone < st.Chunks {
				remaining := time.Duration(float64(time.Since(start)) / float64(st.ChunksDone) * float64(st.Chunks-st.ChunksDone))
				line += fmt.Sprintf(", eta %s", remaining.Round(time.Second))
			}
			return line
		})
		rep.Start()
		defer rep.Stop()
	}

	waitErr := c.Wait(ctx)

	// Finalize merges whatever the frontier holds — everything on
	// success, the partial frontier on quorum loss or interrupt. The
	// merge itself runs no trials, so it proceeds even when ctx is
	// already cancelled.
	est, rep, ferr := c.Finalize(ctx)
	st := c.Status()
	fmt.Fprintf(os.Stderr, "simd: %d/%d chunks merged; %d leases granted, %d expired, %d chunks reassigned, %d duplicate chunks dropped, %d results rejected\n",
		st.ChunksDone, st.Chunks, st.LeasesGranted, st.LeasesExpired, st.ChunksReassigned, st.DuplicatesDropped, st.ResultsRejected)
	if st.HedgesIssued > 0 || st.WorkersQuarantined > 0 || st.RPCsShed > 0 {
		fmt.Fprintf(os.Stderr, "simd: hardening: %d hedges issued, %d workers quarantined, %d rpcs shed\n",
			st.HedgesIssued, st.WorkersQuarantined, st.RPCsShed)
	}
	fmt.Fprintf(os.Stderr, "simd: %s\n", rep)
	mcrun.ReportQuarantine("simd", "", rep)

	if waitErr == nil && ferr == nil {
		// Complete run: the one canonical stdout line, then a grace
		// period in which late workers are told the job is done.
		fmt.Printf("%s: %s\n", jobLine(c.Job()), est)
		c.Linger(ctx)
		return nil
	}

	// Graceful degradation: partial estimate + resume token on stderr.
	if rep.Completed > 0 {
		fmt.Fprintf(os.Stderr, "simd: partial estimate over %d/%d trials: %s: %s\n", rep.Completed, rep.Total, jobLine(c.Job()), est)
	}
	if *state != "" {
		fmt.Fprintf(os.Stderr, "simd: resume bit-identically with: simd coordinate -state %s (plus the original job flags)\n", *state)
	} else {
		fmt.Fprintln(os.Stderr, "simd: (run with -state FILE to make interrupted progress resumable)")
	}
	if waitErr != nil {
		if errors.Is(waitErr, context.Canceled) || errors.Is(waitErr, context.DeadlineExceeded) {
			return fmt.Errorf("interrupted after %d/%d chunks: %w", st.ChunksDone, st.Chunks, waitErr)
		}
		return waitErr
	}
	return ferr
}

func runWork(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("simd work", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:9777 (required)")
	id := fs.String("id", "", "worker name in leases and logs (default worker-<pid>)")
	workers := fs.Int("workers", 0, "engine goroutines per lease (0 = all CPUs)")
	throttle := fs.Duration("throttle", 0, "pause between finishing a lease and reporting it, lease held (testing/rehearsal)")
	traceOut := fs.String("trace-out", "", "write trace spans (leases, chunks, RPCs) as JSONL to this file")
	breakerFailures := fs.Int("breaker-failures", 5, "consecutive RPC failures before the circuit breaker opens (0 = breaker off)")
	breakerCooldown := fs.Duration("breaker-cooldown", time.Second, "how long an open breaker waits before probing the coordinator again")
	retryBudget := fs.Duration("retry-budget", 0, "total elapsed time allowed per RPC across retries before giving up with a budget error (0 = attempts only)")
	chaosNet := fs.String("chaos-net", "", "inject client-side network faults per this script, e.g. 'seed=7,latency=0.3:1ms:10ms,corrupt-send=0.1:/v1/result' (testing only)")
	metricsOut := fs.String("metrics-out", "", "write the worker metrics snapshot (incl. breaker state) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		fs.Usage()
		return errors.New("-coordinator is required")
	}
	service := *id
	if service == "" {
		service = fmt.Sprintf("worker-%d", os.Getpid())
	}
	reg := obs.NewRegistry()
	defer writeMetrics(*metricsOut, reg)
	client := &http.Client{Timeout: 30 * time.Second}
	if *chaosNet != "" {
		script, err := fault.ParseNetScript(*chaosNet)
		if err != nil {
			return err
		}
		netw := script.Build(service, fault.Wall)
		client.Transport = netw.Transport(service, http.DefaultTransport)
		fmt.Fprintf(os.Stderr, "simd: chaos-net active on worker %s: %s\n", service, *chaosNet)
		defer func() {
			fmt.Fprintf(os.Stderr, "simd: chaos-net injected %d faults\n", netw.Total())
		}()
	}
	w := &fabric.Worker{
		Coordinator: *coordinator,
		ID:          *id,
		Workers:     *workers,
		Throttle:    *throttle,
		Client:      client,
		Retry:       fault.RetryPolicy{MaxElapsed: *retryBudget},
		Report: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "simd: "+format+"\n", args...)
		},
	}
	if *breakerFailures > 0 {
		gauge := obs.BreakerGauge(reg)
		w.Breaker = fault.NewBreaker(fault.BreakerOptions{
			Failures: *breakerFailures,
			Cooldown: *breakerCooldown,
			OnChange: func(from, to fault.BreakerState) {
				gauge(from, to)
				fmt.Fprintf(os.Stderr, "simd: breaker %s -> %s\n", from, to)
			},
		})
	}
	tr, err := mcrun.OpenTracer(*traceOut, service)
	if err != nil {
		return err
	}
	if tr != nil {
		defer tr.Close()
	}
	w.Tracer = tr
	return w.Run(ctx)
}
