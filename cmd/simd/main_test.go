package main

// Process-level tests for the distributed trial fabric: the test binary
// re-executes itself as a real simd process (TestMain trampoline), so a
// coordinator and its workers are separate OS processes that can be
// SIGKILLed — no mocks between the test and the failure it injects.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/span"
)

// TestMain doubles as the simd entrypoint: with SIMD_RUN_CLI=1 the test
// binary IS simd, letting the tests below spawn and kill real processes
// without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("SIMD_RUN_CLI") == "1" {
		if err := run(context.Background(), os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "simd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// proc is one re-exec'd simd process with captured output.
type proc struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr bytes.Buffer
}

// startCLI spawns a re-exec'd simd with args.
func startCLI(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(os.Args[0], args...)}
	p.cmd.Env = append(os.Environ(), "SIMD_RUN_CLI=1")
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// runCLI runs a re-exec'd simd to completion.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	p := startCLI(t, args...)
	err = p.cmd.Wait()
	return p.stdout.String(), p.stderr.String(), err
}

// kill SIGKILLs the process — the crash under test, not a shutdown.
func (p *proc) kill() { _ = p.cmd.Process.Kill() }

// killed reports whether the child died from our SIGKILL rather than
// exiting on its own.
func killed(err error) bool {
	var ee *exec.ExitError
	return errors.As(err, &ee) && ee.ExitCode() == -1
}

// waitAddr waits for the coordinator's -addr-file to appear and returns
// its base URL.
func waitAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && len(bytes.TrimSpace(data)) > 0 {
			return "http://" + string(bytes.TrimSpace(data))
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("coordinator never wrote its address file")
	return ""
}

// getStatus polls GET /v1/status (which also sweeps lease expiry).
func getStatus(base string) (fabric.Status, error) {
	var st fabric.Status
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitStatus polls until cond holds or the deadline passes.
func waitStatus(t *testing.T, base string, what string, cond func(fabric.Status) bool) fabric.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last fabric.Status
	for time.Now().Before(deadline) {
		st, err := getStatus(base)
		if err == nil {
			last = st
			if cond(st) {
				return st
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("status never reached %q; last %+v", what, last)
	return last
}

// jobArgs is the canonical test job, small enough to finish in well
// under a second of compute.
var jobArgs = []string{"-model", "dining", "-n", "3", "-trials", "768", "-seed", "11", "-within", "13"}

// TestSimdLocal: sanity — the single-process subcommand prints exactly
// one canonical line on stdout.
func TestSimdLocal(t *testing.T) {
	stdout, stderr, err := runCLI(t, append([]string{"local"}, jobArgs...)...)
	if err != nil {
		t.Fatalf("simd local: %v\nstderr:\n%s", err, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "dining n=3 policy=slowest seed=11 trials=768: ") {
		t.Fatalf("simd local stdout = %q, want one canonical line", stdout)
	}
}

// TestSimdLocalRejectsNaN: a NaN deadline or time cap would compare
// false against every step time and print P = 0; simd must exit
// non-zero instead, with nothing on stdout.
func TestSimdLocalRejectsNaN(t *testing.T) {
	for _, bad := range [][]string{{"-max-time", "NaN"}, {"-within", "NaN"}} {
		args := append([]string{"local", "-model", "dining", "-n", "3", "-trials", "128"}, bad...)
		stdout, stderr, err := runCLI(t, args...)
		if err == nil {
			t.Errorf("simd %v exited 0; stdout %q", args, stdout)
			continue
		}
		if stdout != "" {
			t.Errorf("simd %v printed %q on stdout", args, stdout)
		}
		if !strings.Contains(stderr, "NaN") {
			t.Errorf("simd %v stderr %q does not name the NaN", args, stderr)
		}
	}
}

// TestSimdWorkerKillRecovery is the PR's acceptance test: a coordinator
// and three workers over loopback, one worker SIGKILLed while it holds
// an unreported lease; the lease expires, its chunks are reassigned to
// the surviving workers, and the coordinator's stdout is byte-identical
// to a single-process run of the same job.
func TestSimdWorkerKillRecovery(t *testing.T) {
	want, _, err := runCLI(t, append([]string{"local"}, jobArgs...)...)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	state := filepath.Join(dir, "state.json")
	coord := startCLI(t, append([]string{"coordinate",
		"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-state", state,
		"-lease-chunks", "2", "-lease-ttl", "500ms"}, jobArgs...)...)
	coordDone := make(chan error, 1)
	go func() { coordDone <- coord.cmd.Wait() }()
	defer coord.kill()
	base := waitAddr(t, addrFile)

	// Worker 1 computes its lease instantly but holds the result for 30s
	// (heartbeating all the while) — a worker that is alive and owes work.
	w1 := startCLI(t, "work", "-coordinator", base, "-id", "victim", "-throttle", "30s")
	w1Done := make(chan error, 1)
	go func() { w1Done <- w1.cmd.Wait() }()
	waitStatus(t, base, "victim holds a lease", func(st fabric.Status) bool {
		return st.ChunksLeased >= 1
	})

	// SIGKILL it mid-hold: the lease dies with it.
	w1.kill()
	if err := <-w1Done; !killed(err) {
		t.Fatalf("victim worker exit = %v, want SIGKILL", err)
	}
	st := waitStatus(t, base, "victim's lease expired", func(st fabric.Status) bool {
		return st.LeasesExpired >= 1
	})
	if st.ChunksReassigned < 1 {
		t.Fatalf("lease expired but no chunks reassigned: %+v", st)
	}

	// Two fresh workers finish the job, reassigned chunks included.
	var survivors []*proc
	for _, id := range []string{"survivor-1", "survivor-2"} {
		survivors = append(survivors, startCLI(t, "work", "-coordinator", base, "-id", id))
	}
	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("coordinator: %v\nstderr:\n%s", err, coord.stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator did not finish")
	}
	for i, w := range survivors {
		if err := w.cmd.Wait(); err != nil {
			t.Errorf("survivor-%d: %v\nstderr:\n%s", i+1, err, w.stderr.String())
		}
	}

	if got := coord.stdout.String(); got != want {
		t.Errorf("coordinator stdout differs from single-process run:\n--- want\n%s--- got\n%s", want, got)
	}
	if !strings.Contains(coord.stderr.String(), "reassigned") {
		t.Errorf("coordinator stderr does not report reassignment:\n%s", coord.stderr.String())
	}
}

// TestSimdTracedKillRecovery is the tracing acceptance test: the
// worker-kill scenario re-run with -trace-out on the coordinator and
// every worker. The merged timeline must show the killed worker's lease
// expiring, the reassignment chain that re-covered its chunks, and a
// non-empty critical path in the rendered report.
func TestSimdTracedKillRecovery(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	coordTrace := filepath.Join(dir, "coord.trace")
	coord := startCLI(t, append([]string{"coordinate",
		"-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-lease-chunks", "2", "-lease-ttl", "500ms",
		"-trace-out", coordTrace}, jobArgs...)...)
	coordDone := make(chan error, 1)
	go func() { coordDone <- coord.cmd.Wait() }()
	defer coord.kill()
	base := waitAddr(t, addrFile)

	w1 := startCLI(t, "work", "-coordinator", base, "-id", "victim", "-throttle", "30s",
		"-trace-out", filepath.Join(dir, "victim.trace"))
	w1Done := make(chan error, 1)
	go func() { w1Done <- w1.cmd.Wait() }()
	waitStatus(t, base, "victim holds a lease", func(st fabric.Status) bool {
		return st.ChunksLeased >= 1
	})
	w1.kill()
	if err := <-w1Done; !killed(err) {
		t.Fatalf("victim worker exit = %v, want SIGKILL", err)
	}
	waitStatus(t, base, "victim's lease expired", func(st fabric.Status) bool {
		return st.LeasesExpired >= 1
	})

	survivorTrace := filepath.Join(dir, "survivor.trace")
	w2 := startCLI(t, "work", "-coordinator", base, "-id", "survivor", "-trace-out", survivorTrace)
	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("coordinator: %v\nstderr:\n%s", err, coord.stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator did not finish")
	}
	if err := w2.cmd.Wait(); err != nil {
		t.Fatalf("survivor: %v\nstderr:\n%s", err, w2.stderr.String())
	}

	// Merge the coordinator's and the survivor's traces. The victim died
	// by SIGKILL, so its file is unflushed/empty — the coordinator's side
	// of its lease must carry the story on its own.
	var recs []span.Record
	for _, path := range []string{coordTrace, survivorTrace} {
		rs, err := span.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		recs = append(recs, rs...)
	}
	tl := span.BuildTimeline(recs)

	var expired *span.Record
	for _, r := range tl.Spans {
		if r.Name == "lease" && r.AttrStr("worker") == "victim" && r.AttrStr("outcome") == "expired" {
			expired = r
		}
	}
	if expired == nil {
		t.Fatalf("merged timeline has no expired lease span for the victim; spans: %d", len(tl.Spans))
	}
	if got := expired.AttrInt("reassigned"); got < 1 {
		t.Errorf("expired lease span reports %d chunks reassigned, want >= 1", got)
	}

	chains := tl.ReassignmentChains()
	if len(chains) == 0 {
		t.Fatal("merged timeline has no reassignment chains")
	}
	found := false
	for _, ch := range chains {
		if len(ch.Leases) >= 2 && ch.Leases[0].AttrStr("worker") == "victim" &&
			ch.Leases[len(ch.Leases)-1].AttrStr("outcome") == "delivered" {
			found = true
		}
	}
	if !found {
		t.Errorf("no chain runs from the victim's expired lease to a delivered one: %+v", chains)
	}

	if path := tl.CriticalPath(); len(path) == 0 {
		t.Error("critical path is empty")
	}
	var report bytes.Buffer
	tl.RenderText(&report, span.RenderOptions{})
	for _, want := range []string{"critical path (", "reassignment chains:", "victim, expired"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("rendered report missing %q:\n%s", want, report.String())
		}
	}
}

// TestSimdCoordinatorResume: a coordinator SIGKILLed mid-run and
// restarted on the same -state file resumes from its durable frontier
// and still prints the byte-identical line.
func TestSimdCoordinatorResume(t *testing.T) {
	want, _, err := runCLI(t, append([]string{"local"}, jobArgs...)...)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	dir := t.TempDir()
	state := filepath.Join(dir, "state.json")
	coordArgs := func(addrFile string) []string {
		return append([]string{"coordinate",
			"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-state", state,
			"-lease-chunks", "2", "-lease-ttl", "500ms"}, jobArgs...)
	}

	// Leg 1: a throttled worker delivers a few leases slowly; the
	// coordinator is SIGKILLed with the job incomplete.
	addr1 := filepath.Join(dir, "addr1")
	c1 := startCLI(t, coordArgs(addr1)...)
	c1Done := make(chan error, 1)
	go func() { c1Done <- c1.cmd.Wait() }()
	base1 := waitAddr(t, addr1)
	w1 := startCLI(t, "work", "-coordinator", base1, "-id", "slow", "-throttle", "300ms")
	w1Done := make(chan error, 1)
	go func() { w1Done <- w1.cmd.Wait() }()
	waitStatus(t, base1, "some chunks merged, some missing", func(st fabric.Status) bool {
		return st.ChunksDone >= 1 && !st.Complete
	})
	c1.kill()
	if err := <-c1Done; !killed(err) {
		t.Fatalf("coordinator exit = %v, want SIGKILL", err)
	}
	w1.kill() // the worker would only spin on connection-refused retries
	<-w1Done

	// Leg 2: restart on the same state file; a fresh worker finishes.
	addr2 := filepath.Join(dir, "addr2")
	c2 := startCLI(t, coordArgs(addr2)...)
	c2Done := make(chan error, 1)
	go func() { c2Done <- c2.cmd.Wait() }()
	defer c2.kill()
	base2 := waitAddr(t, addr2)
	if st, err := getStatus(base2); err != nil || st.ChunksDone < 1 {
		t.Fatalf("restarted coordinator lost the frontier: %+v, %v", st, err)
	}
	w2 := startCLI(t, "work", "-coordinator", base2, "-id", "finisher")
	select {
	case err := <-c2Done:
		if err != nil {
			t.Fatalf("restarted coordinator: %v\nstderr:\n%s", err, c2.stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("restarted coordinator did not finish")
	}
	if err := w2.cmd.Wait(); err != nil {
		t.Errorf("finisher: %v\nstderr:\n%s", err, w2.stderr.String())
	}
	if got := c2.stdout.String(); got != want {
		t.Errorf("resumed coordinator stdout differs from single-process run:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestSimdQuorumLoss: a coordinator that never hears from a worker for
// -quorum-timeout exits with the partial estimate and a resume hint on
// stderr — graceful degradation, not a hang — and still flushes its
// -metrics-out snapshot on the way out.
func TestSimdQuorumLoss(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	state := filepath.Join(dir, "state.json")
	metricsOut := filepath.Join(dir, "metrics.json")
	coord := startCLI(t, append([]string{"coordinate",
		"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-state", state,
		"-lease-ttl", "200ms", "-quorum-timeout", "1s",
		"-metrics-out", metricsOut}, jobArgs...)...)
	done := make(chan error, 1)
	go func() { done <- coord.cmd.Wait() }()
	waitAddr(t, addrFile)

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("coordinator exited clean with no workers")
		}
	case <-time.After(30 * time.Second):
		coord.kill()
		t.Fatal("coordinator hung past its quorum timeout")
	}
	stderr := coord.stderr.String()
	if !strings.Contains(stderr, "quorum") {
		t.Errorf("stderr does not mention quorum loss:\n%s", stderr)
	}
	if !strings.Contains(stderr, "resume bit-identically") {
		t.Errorf("stderr does not offer the resume token:\n%s", stderr)
	}
	if out := coord.stdout.String(); out != "" {
		t.Errorf("degraded run wrote to stdout: %q (canonical line must mean success)", out)
	}
	// The degraded exit must still flush the metrics snapshot.
	data, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatalf("-metrics-out not written on the quorum-loss path: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-metrics-out is not a parseable snapshot: %v", err)
	}
	if _, ok := snap.Counters["fabric.leases_granted"]; !ok {
		t.Errorf("snapshot missing fabric.leases_granted: %+v", snap.Counters)
	}
	if _, ok := snap.Histograms["fabric.lease_wait_seconds"]; !ok {
		t.Errorf("snapshot missing fabric.lease_wait_seconds histogram: %v", data)
	}
}
