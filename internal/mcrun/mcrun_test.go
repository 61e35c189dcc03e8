package mcrun

import (
	"context"
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// parse registers the run-shape flags on a quiet flag set and parses args.
func parse(t *testing.T, args ...string) (*flag.FlagSet, *Flags) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs, f
}

func TestRegisterDefaults(t *testing.T) {
	_, f := parse(t)
	want := Flags{Seed: 1, Keep: 3}
	if *f != want {
		t.Errorf("defaults = %+v, want %+v", *f, want)
	}
}

func TestStartRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-1"},
		{"-budget", "-1s"},
		{"-quarantine", "-1"},
		{"-trial-timeout", "-1s"},
		{"-keep", "0"},
		{"-progress", "-1s"},
		{"-manifest", filepath.Join(t.TempDir(), "no", "such", "dir", "m.jsonl")},
	} {
		fs, f := parse(t, args...)
		if r, err := Start(fs, f, "test", 1); err == nil {
			r.Finish(nil)
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestContextBudgetCause(t *testing.T) {
	ctx, cancel := Context(context.Background(), 5*time.Millisecond)
	defer cancel()
	<-ctx.Done()
	if err := context.Cause(ctx); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("cause = %v, want the expired budget", err)
	}
}

// TestStageCheckpointRoundTrip: a stage's sink saves its checkpoints into
// the -checkpoint file, and a -resume run hands the stage its token back.
func TestStageCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	fs, f := parse(t, "-checkpoint", path)
	r, err := Start(fs, f, "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadCheckpoints(); err != nil {
		t.Fatal(err)
	}
	popts := r.Stage("s")
	if popts.Resume != nil || popts.CheckpointSink == nil {
		t.Fatalf("fresh stage: resume %v, sink set %t", popts.Resume, popts.CheckpointSink != nil)
	}
	cp := &sim.Checkpoint{Kind: "k", Seed: 1, Trials: 64, ChunkSize: 64}
	if err := popts.CheckpointSink(cp); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(nil); err != nil {
		t.Fatal(err)
	}

	fs, f = parse(t, "-resume", path)
	r, err = Start(fs, f, "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Finish(nil)
	if err := r.LoadCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stage("s").Resume; got == nil || got.Kind != "k" || got.Trials != 64 {
		t.Errorf("resumed stage token = %+v, want the saved checkpoint", got)
	}
	if got := r.Stage("other").Resume; got != nil {
		t.Errorf("unsaved stage got token %+v", got)
	}
}

func TestStageWithoutStateFile(t *testing.T) {
	fs, f := parse(t, "-workers", "3", "-seed", "9", "-quarantine", "2", "-nocompile")
	r, err := Start(fs, f, "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Finish(nil)
	if err := r.LoadCheckpoints(); err != nil {
		t.Fatal(err)
	}
	popts := r.Stage("s")
	if popts.Workers != 3 || popts.Seed != 9 || popts.MaxPanics != 2 || !popts.NoCompile {
		t.Errorf("stage options = %+v, want the run-shape flags", popts)
	}
	if popts.CheckpointSink != nil || popts.SpanHooks != nil || popts.Metrics != nil {
		t.Error("a run with no state file, tracer or sinks got a sink or hooks")
	}
}
