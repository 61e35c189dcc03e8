// Package mcrun is the run harness the Monte Carlo front ends share:
// cmd/lrsim, the -sample stage of cmd/electcheck, and cmd/simd. It holds
// one implementation of each piece of plumbing around a sampling run:
//
//   - the run-shape flags and their validation (Register, UsageError);
//   - the observability sinks and the root job span (Start, Finish,
//     OpenTrace);
//   - the signal-plus-budget context (Context);
//   - the checkpoint state file with its per-stage sink
//     (LoadCheckpoints, ResumeHint);
//   - the per-stage engine options with the nil-tracer gate (Stage);
//   - the quarantine report (ReportQuarantine).
//
// A front end keeps only its own flags, its models and its output.
package mcrun

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

// Flags are the run-shape flags every sampling front end takes. Register
// binds them to a flag set; the values are set once the set is parsed.
type Flags struct {
	Workers      int
	Seed         int64
	Budget       time.Duration
	Checkpoint   string
	Resume       string
	Keep         int
	Quarantine   int
	TrialTimeout time.Duration
	Progress     time.Duration
	Manifest     string
	TraceOut     string
	MetricsOut   string
	Pprof        string
	NoCompile    bool
}

// Register adds the run-shape flags, with their defaults, to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "workers", 0, "worker goroutines sharding the trials (0 = all CPUs)")
	fs.Int64Var(&f.Seed, "seed", 1, "random seed (per-trial streams are derived from it; results are reproducible for any -workers)")
	fs.DurationVar(&f.Budget, "budget", 0, "wall-clock budget; on expiry in-flight chunks drain and partial estimates print with a resume token (0 = none)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "persist chunk-granularity progress to this JSON state file as trials complete")
	fs.StringVar(&f.Resume, "resume", "", "resume from this state file (and keep updating it); the final estimates are bit-identical to an uninterrupted run")
	fs.IntVar(&f.Keep, "keep", 3, "checkpoint generations to retain (state.json, state.json.g1, ...); loads fall back to the newest valid one")
	fs.IntVar(&f.Quarantine, "quarantine", 0, "panicking or stalled trials tolerated per estimate (recorded with repro seeds, excluded from it) before aborting")
	fs.DurationVar(&f.TrialTimeout, "trial-timeout", 0, "per-trial watchdog: quarantine a trial that runs longer than this wall-clock budget (0 = off)")
	fs.DurationVar(&f.Progress, "progress", 0, "print a live progress line to stderr at this interval (0 = off)")
	fs.StringVar(&f.Manifest, "manifest", "", "record a JSONL run manifest (events + final summary) to this file")
	fs.StringVar(&f.TraceOut, "trace-out", "", "record a JSONL trace (one span per sweep chunk under a root job span) to this file; analyze with simtrace")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the final metrics registry snapshot as JSON to this file")
	fs.StringVar(&f.Pprof, "pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address for the duration of the run")
	fs.BoolVar(&f.NoCompile, "nocompile", false, "disable the compiled-model transition cache (estimates are identical; for debugging and perf comparison)")
	return f
}

// UsageError prints the usage text of fs and returns the formatted
// error: the form every bad flag value takes, before any work starts.
func UsageError(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return fmt.Errorf(format, args...)
}

func (f *Flags) validate(fs *flag.FlagSet) error {
	switch {
	case f.Workers < 0:
		return UsageError(fs, "-workers must be >= 0, got %d", f.Workers)
	case f.Budget < 0:
		return UsageError(fs, "-budget must be >= 0, got %v", f.Budget)
	case f.Quarantine < 0:
		return UsageError(fs, "-quarantine must be >= 0, got %d", f.Quarantine)
	case f.TrialTimeout < 0:
		return UsageError(fs, "-trial-timeout must be >= 0, got %v", f.TrialTimeout)
	case f.Keep < 1:
		return UsageError(fs, "-keep must be >= 1, got %d", f.Keep)
	case f.Progress < 0:
		return UsageError(fs, "-progress must be >= 0, got %v", f.Progress)
	}
	return nil
}

// Run is one front-end run: its flags, its observability and, once
// loaded, its checkpoint state file.
type Run struct {
	*Flags
	ins   *obs.Instrumentation
	trace *Trace

	tool  string
	store *sim.ArtifactStore
	set   sim.CheckpointSet // nil when the run keeps no state file
}

// Start validates the run-shape flags and opens the run's observability.
// obs.Setup opens the sinks up front, so an unwritable path or an
// unbindable address is a usage error. The -trace-out tracer gets a root
// job span stamped with the tool name, attrs and the seed. trials is the
// overall trial budget behind the progress ETA. Every Start must be
// paired with a Finish.
func Start(fs *flag.FlagSet, f *Flags, tool string, trials int, attrs ...span.Attr) (*Run, error) {
	if err := f.validate(fs); err != nil {
		return nil, err
	}
	// The manifest records every flag at its effective value: together
	// with the tool name this is the full reproduction recipe.
	options := map[string]string{}
	fs.VisitAll(func(fl *flag.Flag) { options[fl.Name] = fl.Value.String() })
	ins, err := obs.Setup(obs.Config{
		Tool:        tool,
		Seed:        f.Seed,
		Options:     options,
		Resume:      f.Resume,
		TotalTrials: trials,
		Progress:    f.Progress,
		MetricsOut:  f.MetricsOut,
		Manifest:    f.Manifest,
		Pprof:       f.Pprof,
	})
	if err != nil {
		return nil, UsageError(fs, "%v", err)
	}
	attrs = append(append([]span.Attr{span.Str("tool", tool)}, attrs...), span.Int64("seed", f.Seed))
	trace, err := OpenTrace(f.TraceOut, tool, attrs...)
	if err != nil {
		ins.Close(err)
		return nil, err
	}
	return &Run{Flags: f, ins: ins, trace: trace, tool: tool}, nil
}

// Finish ends the root span with the run's outcome and flushes the
// tracer and the observability sinks. It returns runErr, or the first
// flush error of a run that otherwise succeeded.
func (r *Run) Finish(runErr error) error {
	if err := r.trace.End(runErr); err != nil && runErr == nil {
		runErr = err
	}
	if err := r.ins.Close(runErr); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// Context derives a run's context. SIGINT and SIGTERM cancel it for a
// graceful drain, and a positive budget also expires it after that much
// wall-clock time, with a cause naming the budget. The signal handler is
// released the moment the context ends, so a second signal kills the
// process the default way instead of being swallowed.
func Context(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	if budget <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeoutCause(ctx, budget, fmt.Errorf("wall-clock budget %v expired", budget))
	return ctx, func() { cancel(); stop() }
}

// statePath is the state file the run writes: -checkpoint, else the
// -resume file, which a resumed run keeps updating.
func (r *Run) statePath() string {
	if r.Checkpoint != "" {
		return r.Checkpoint
	}
	return r.Resume
}

// LoadCheckpoints opens the run's state file, which maps each stage
// label to its resume token. All state-file I/O goes through the durable
// artifact store: checksummed envelopes, -keep generations, automatic
// fallback to the newest valid one, retried transient write faults.
// -resume loads the file and reports skipped corrupt generations and a
// fallback to a backup on stderr; -checkpoint alone starts an empty set;
// with neither flag the run keeps no state.
func (r *Run) LoadCheckpoints() error {
	if r.statePath() == "" {
		return nil
	}
	r.store = &sim.ArtifactStore{Keep: r.Keep}
	if sm := r.ins.Metrics(); sm != nil {
		r.store.Metrics = sm
	}
	if r.Resume == "" {
		r.set = sim.CheckpointSet{}
		return nil
	}
	set, info, err := r.store.Load(r.Resume)
	if err != nil {
		return err
	}
	if len(info.Corrupt) > 0 {
		fmt.Fprintf(os.Stderr, "%s: corrupt checkpoint generation(s) skipped: %s\n", r.tool, strings.Join(info.Corrupt, ", "))
	}
	if info.Generation > 0 {
		fmt.Fprintf(os.Stderr, "%s: resuming from backup generation %d (%s)\n", r.tool, info.Generation, info.Path)
	}
	r.set = set
	return nil
}

// ResumeHint tells the user of an interrupted run how to continue it.
func (r *Run) ResumeHint() {
	if p := r.statePath(); p != "" {
		fmt.Printf("resume bit-identically with: %s -resume %s (plus the original flags)\n", r.tool, p)
	} else {
		fmt.Println("(run with -checkpoint FILE to make interrupted progress resumable)")
	}
}

// Stage records the start of the stage named label in the manifest and
// returns its engine options: the run-shape flags, the metrics hook, the
// stage's chunk spans and pprof labels, and, when the run keeps a state
// file, the stage's resume token plus a sink that saves each new
// checkpoint of the stage into the file.
func (r *Run) Stage(label string) sim.ParallelOptions {
	r.ins.PhaseStart(label)
	popts := sim.ParallelOptions{
		Workers:      r.Workers,
		Seed:         r.Seed,
		MaxPanics:    r.Quarantine,
		NoCompile:    r.NoCompile,
		TrialTimeout: r.TrialTimeout,
	}
	if sm := r.ins.Metrics(); sm != nil {
		popts.Metrics = sm
	}
	hooks := fabric.Hooks(r.trace.Tracer, r.trace.Root.Context(),
		[]string{"fabric_job", fmt.Sprintf("%s-s%d", r.tool, r.Seed), "stage", label}, span.Str("stage", label))
	popts.SpanHooks, popts.PprofLabels = hooks.Spans, hooks.Labels
	if r.set != nil {
		popts.Resume = r.set[label]
		popts.CheckpointSink = func(cp *sim.Checkpoint) error {
			r.set[label] = cp
			return r.store.Save(r.statePath(), r.set)
		}
	}
	return popts
}

// StageDone records the end of the stage named label in the manifest and
// reports its quarantined trials.
func (r *Run) StageDone(label, estimate string, rep sim.RunReport, err error) {
	r.ins.PhaseDone(label, estimate, rep.String(), err)
	ReportQuarantine(r.tool, label, rep)
}

// ReportQuarantine lists the quarantined trials of a run (panics and
// watchdog stalls) on stderr with their repro seeds. The quarantine keeps
// a crashing or stuck trial from killing the run, but every one stays
// visible and individually replayable. stage may be empty.
func ReportQuarantine(tool, stage string, rep sim.RunReport) {
	if rep.Quarantined == 0 {
		return
	}
	prefix := tool
	if stage != "" {
		prefix += ": " + stage
	}
	fmt.Fprintf(os.Stderr, "%s: %d trials quarantined (%d panicked, %d stalled; excluded from the estimate):\n",
		prefix, rep.Quarantined, rep.Quarantined-rep.Stalled, rep.Stalled)
	for _, pr := range rep.Panics {
		verb := "panicked"
		if pr.Kind == sim.RecordStalled {
			verb = "stalled"
		}
		fmt.Fprintf(os.Stderr, "  trial %d %s: %s — replay: sim.ReproTrial with the run's root seed and trial %d (trial RNG seed %d)\n",
			pr.Trial, verb, pr.Value, pr.Trial, pr.Seed)
	}
}

// Trace is the -trace-out exporter of one run and its root job span.
// Without -trace-out the tracer is nil and every span call on it is a
// no-op, so an untraced run pays one nil check per span.
type Trace struct {
	Tracer *span.Tracer
	Root   *span.Span
}

// OpenTracer opens the JSONL span exporter at path for service, or
// returns nil when path is empty.
func OpenTracer(path, service string) (*span.Tracer, error) {
	if path == "" {
		return nil, nil
	}
	return span.Open(path, span.Options{Service: service})
}

// OpenTrace opens the span exporter at path and starts the root "job"
// span stamped with attrs.
func OpenTrace(path, service string, attrs ...span.Attr) (*Trace, error) {
	tr, err := OpenTracer(path, service)
	if err != nil {
		return nil, err
	}
	return &Trace{Tracer: tr, Root: tr.Start("job", span.SpanContext{}, attrs...)}, nil
}

// End closes the root span with the run's outcome and attrs, then
// flushes and closes the exporter.
func (t *Trace) End(runErr error, attrs ...span.Attr) error {
	outcome := "complete"
	if runErr != nil {
		outcome = "error"
	}
	t.Root.End(append([]span.Attr{span.Str("outcome", outcome)}, attrs...)...)
	return t.Tracer.Close()
}
