package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
)

func TestRunPolicies(t *testing.T) {
	for _, policy := range []string{"slowest", "random", "spiteful", "paced:0.5"} {
		if err := run([]string{"-n", "3", "-policy", policy, "-seed", "2"}); err != nil {
			t.Errorf("policy %s: %v", policy, err)
		}
	}
}

func TestRunNoTarget(t *testing.T) {
	if err := run([]string{"-n", "2", "-until-c=false", "-max-events", "10"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	if err := run([]string{"-policy", "nope"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	tests := [][]string{
		{"-n", "0"},
		{"-max-events", "0"},
		{"-jsonl", filepath.Join(missing, "t.jsonl")},
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunJSONL: the streamed trace is a readable manifest whose step
// events mirror the recorded execution and whose meta replays the run.
func TestRunJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-n", "3", "-policy", "slowest", "-seed", "4", "-jsonl", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	log, err := obs.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := log.Meta()
	if meta == nil || meta.Tool != "lrtrace" || meta.Seed != 4 {
		t.Fatalf("meta = %+v", meta)
	}
	if log.Summary == nil {
		t.Fatal("trace manifest not closed")
	}
	steps := log.Steps()
	if len(steps) == 0 {
		t.Fatal("no step events streamed")
	}
	last := steps[len(steps)-1]
	if last.State == "" || last.Action == "" || last.T <= 0 {
		t.Errorf("last step = %+v", last)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].T < steps[i-1].T {
			t.Errorf("steps out of order: %v then %v", steps[i-1], steps[i])
		}
	}
	// The recorded options replay the same trace: same seed, same steps.
	path2 := filepath.Join(t.TempDir(), "replay.jsonl")
	replay := append(obs.ReplayArgs(meta.Options, "jsonl"), "-jsonl", path2)
	if err := run(replay); err != nil {
		t.Fatalf("replay %v: %v", replay, err)
	}
	log2, err := obs.LoadManifest(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log2.Steps(), steps) {
		t.Errorf("replayed steps differ:\n%v\n%v", log2.Steps(), steps)
	}
}
