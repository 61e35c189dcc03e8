package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/consensus"
	"repro/internal/dining"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// estimate runs a small seeded reach-probability estimate and renders it
// with its run report.
func estimate[S comparable](t *testing.T, m sched.Model[S], mk func() sim.Policy[S], target func(S) bool, start S) string {
	t.Helper()
	est, rep, err := sim.EstimateReachProbParallel(context.Background(), m, mk, target, 13, 512,
		sim.Options[S]{Start: start, SetStart: true, MaxEvents: 20000}, sim.ParallelOptions{Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %s", est.String(), rep)
}

// The counting model must not change what the engine computes, and must
// keep the inner model's packer so Compile still interns by packed key.
func TestCountingModelKeepsEstimates(t *testing.T) {
	t.Run("dining", func(t *testing.T) {
		m, err := dining.New(3)
		if err != nil {
			t.Fatal(err)
		}
		mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Slowest[dining.State]()) }
		wrapped, counter := countModel[dining.State](m)
		if _, ok := wrapped.(sched.Packer[dining.State]); !ok {
			t.Fatal("wrapped dining model lost sched.Packer")
		}
		start := dining.AllAt(3, dining.F)
		if got, want := estimate(t, wrapped, mk, dining.InC, start), estimate(t, m, mk, dining.InC, start); got != want {
			t.Fatalf("wrapped %q, unwrapped %q", got, want)
		}
		if counter.moves.Load() == 0 || counter.nanos.Load() == 0 {
			t.Fatal("counting model saw no Moves calls")
		}
	})
	t.Run("consensus", func(t *testing.T) {
		m := consensus.MustNew(3, 1)
		start, err := m.StartWith([]uint8{0, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		mk := func() sim.Policy[consensus.State] {
			return consensus.CrashLastReporter(sim.Random[consensus.State](0))
		}
		wrapped, counter := countModel[consensus.State](m)
		if _, ok := wrapped.(sched.Packer[consensus.State]); !ok {
			t.Fatal("wrapped consensus model lost sched.Packer")
		}
		target := consensus.State.AllCorrectDecided
		if got, want := estimate(t, wrapped, mk, target, start), estimate(t, m, mk, target, start); got != want {
			t.Fatalf("wrapped %q, unwrapped %q", got, want)
		}
		if counter.states() < 1 {
			t.Fatal("counting model saw no states")
		}
	})
}

// recordingFS counts the durability calls that reach the filesystem
// underneath the countingFS.
type recordingFS struct {
	fault.FS
	syncs, dirSyncs atomic.Int64
}

type recordingFile struct {
	fault.File
	fs *recordingFS
}

func (r *recordingFS) CreateTemp(dir, pattern string) (fault.File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return recordingFile{File: f, fs: r}, nil
}

func (r *recordingFS) SyncDir(dir string) error {
	r.dirSyncs.Add(1)
	return r.FS.SyncDir(dir)
}

func (f recordingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// The counting filesystem forwards every Sync and SyncDir, and counts
// exactly the bytes that land in the state file.
func TestCountingFSForwardsSyncs(t *testing.T) {
	rec := &recordingFS{FS: fault.OS}
	cfs := &countingFS{inner: rec}
	store := &sim.ArtifactStore{FS: cfs}
	path := filepath.Join(t.TempDir(), "state.json")
	cs := sim.CheckpointSet{"job": {Version: 1, Kind: "reachprob(within=13)", Seed: 1, Trials: 64, ChunkSize: 64}}
	const saves = 3
	var written int64
	for i := 0; i < saves; i++ {
		if err := store.Save(path, cs); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		written += info.Size()
	}
	if got := cfs.saves.Load(); got != saves {
		t.Fatalf("counted %d saves, want %d", got, saves)
	}
	if rec.syncs.Load() != saves || rec.dirSyncs.Load() != saves {
		t.Fatalf("inner FS saw %d file and %d directory syncs, want %d of each", rec.syncs.Load(), rec.dirSyncs.Load(), saves)
	}
	if got := cfs.fsyncs.Load(); got != 2*saves {
		t.Fatalf("counted %d fsyncs, want %d", got, 2*saves)
	}
	if got := cfs.bytes.Load(); got != written {
		t.Fatalf("counted %d bytes written, the state files hold %d", got, written)
	}
	loaded, _, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, cs) {
		t.Fatalf("loaded %+v, saved %+v", loaded, cs)
	}
}

// The RPC meter leaves status codes, headers and bodies as the wrapped
// handler and transport produce them.
func TestRPCMeterLeavesResponses(t *testing.T) {
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		w.Header().Set("X-Route", r.URL.Path)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "%s:%s", r.URL.Path, body)
	})
	meter := &rpcMeter{l: newLayers()}
	for _, route := range []string{"/v1/lease", "/v1/result", "/v1/heartbeat", "/v1/status"} {
		var recs [2]*httptest.ResponseRecorder
		for i, h := range []http.Handler{echo, meter.handler(echo)} {
			recs[i] = httptest.NewRecorder()
			h.ServeHTTP(recs[i], httptest.NewRequest(http.MethodPost, route, strings.NewReader("payload")))
		}
		if recs[0].Code != recs[1].Code || recs[0].Body.String() != recs[1].Body.String() ||
			!reflect.DeepEqual(recs[0].Header(), recs[1].Header()) {
			t.Fatalf("%s: wrapped response %d %q %v, unwrapped %d %q %v", route,
				recs[1].Code, recs[1].Body, recs[1].Header(), recs[0].Code, recs[0].Body, recs[0].Header())
		}
	}
	if got := meter.bytesUp.Load(); got != int64(len("payload")) {
		t.Fatalf("counted %d result bytes, want %d", got, len("payload"))
	}
	for i, route := range rpcRoutes {
		if got := meter.calls[i].Load(); got != 1 {
			t.Fatalf("counted %d %s calls, want 1", got, route)
		}
	}

	srv := httptest.NewServer(echo)
	defer srv.Close()
	client := &http.Client{Transport: meter.transport(srv.Client().Transport)}
	resp, err := client.Post(srv.URL+"/v1/lease", "application/json", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || string(body) != "/v1/lease:x" {
		t.Fatalf("through the meter's transport: %d %q", resp.StatusCode, body)
	}
	if _, n := meter.l.value("fabric.rpc_ms_p50"); n != 1 {
		t.Fatalf("transport timed %d round trips, want 1", n)
	}
}

// BENCHMARK.json declares the same workloads and metrics as the program.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	var e2e, layer []metric
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit, m.Better})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Fatalf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Fatalf("BENCHMARK.json per_layer %v, program %v", layer, perLayer)
	}
}

// Bad flags fail without printing a result.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-table", "--seconds", "0"},
		{"--workload", "paper-table", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), "correct") {
			t.Fatalf("run(%q) = %d with output %q", args, code, stdout.String())
		}
	}
}
