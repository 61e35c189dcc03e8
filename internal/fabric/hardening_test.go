package fabric

// Tests for the adversarial-network hardening: hedged leases, worker
// health scoring and quarantine, and coordinator admission control. The
// invariant under test is always the same one as everywhere else in the
// fabric — whatever the hardening machinery does (duplicate leases,
// revoked leases, shed RPCs), the finalized estimate stays byte-equal
// to the single-process reference.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

// deliverRange computes the fragment for a lease's range and posts it
// as that worker.
func deliverRange(t *testing.T, c *Coordinator, runner Runner, worker, leaseID string, r sim.ChunkRange) ResultResponse {
	t.Helper()
	frag, _, err := runner.RunRange(context.Background(), 2, r, EngineHooks{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.result(ResultPayload{Worker: worker, Lease: leaseID, Checkpoint: frag})
	if err != nil {
		t.Fatalf("%s delivering %v: %v", worker, r, err)
	}
	return resp
}

// TestHedgeBoundsStraggler is the hedging acceptance test: with a
// FakeClock, a worker that goes dark holds the last chunk hostage. With
// hedging enabled the coordinator re-issues that range to an idle
// worker once the lease's age passes HedgeFactor × the p99 of observed
// completion times — long before the TTL expires — so the job finishes
// in seconds instead of a full TTL later, with zero effect on the
// output bytes.
func TestHedgeBoundsStraggler(t *testing.T) {
	ctx := context.Background()
	spec := testJob(320) // 5 chunks
	want := reference(t, spec)
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}

	// run drives the straggler scenario and returns (estimate, elapsed,
	// status). w1 delivers [0,2) and [2,4) in 1s each (the completion
	// samples), w3 takes [4,5) and goes dark, and idle w2 polls 5s in.
	run := func(hedge bool) (string, time.Duration, Status) {
		fc := fault.NewFakeClock(time.Unix(0, 0))
		c, err := NewCoordinator(ctx, spec, CoordinatorOptions{
			Clock:           fc,
			LeaseChunks:     2,
			LeaseTTL:        60 * time.Second,
			Hedge:           hedge,
			HedgeFactor:     2,
			HedgeMinSamples: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []sim.ChunkRange{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}} {
			lr, _ := c.grant("w1")
			if lr.Lease == nil || lr.Lease.Chunks != r {
				t.Fatalf("w1 lease = %+v, want chunks %v", lr, r)
			}
			fc.Advance(time.Second)
			deliverRange(t, c, runner, "w1", lr.Lease.ID, r)
		}
		straggler, _ := c.grant("w3") // w3 goes dark holding [4,5)
		if straggler.Lease == nil {
			t.Fatalf("w3 got no lease: %+v", straggler)
		}
		// Too early for a hedge: the straggling lease is younger than
		// 2 × p99(1s, 1s) = 2s, so the idle worker is told to wait.
		if lr, _ := c.grant("w2"); !lr.None || lr.Lease != nil {
			t.Fatalf("immediate w2 grant = %+v, want None (no hedge yet)", lr)
		}
		fc.Advance(5 * time.Second)
		lr, _ := c.grant("w2")
		if hedge {
			if lr.Lease == nil || lr.Lease.Chunks != straggler.Lease.Chunks {
				t.Fatalf("hedged grant = %+v, want a duplicate of %v", lr, straggler.Lease.Chunks)
			}
		} else {
			if !lr.None {
				t.Fatalf("unhedged grant = %+v, want None until the TTL expires", lr)
			}
			// Without hedging, w2 can only wait out w3's full TTL.
			fc.Advance(60 * time.Second)
			lr, _ = c.grant("w2")
			if lr.Lease == nil || lr.Lease.Chunks != straggler.Lease.Chunks {
				t.Fatalf("post-expiry grant = %+v, want %v", lr, straggler.Lease.Chunks)
			}
		}
		deliverRange(t, c, runner, "w2", lr.Lease.ID, lr.Lease.Chunks)
		if !c.Done() {
			t.Fatal("job not done after w2's delivery")
		}
		got, _, err := c.Finalize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return got, fc.Now().Sub(time.Unix(0, 0)), c.Status()
	}

	hedgedEst, hedgedWall, hedgedSt := run(true)
	plainEst, plainWall, plainSt := run(false)

	if hedgedEst != want || plainEst != want {
		t.Errorf("estimates hedged %q / unhedged %q, want both %q (hedging must not touch the bytes)", hedgedEst, plainEst, want)
	}
	if hedgedWall >= plainWall {
		t.Errorf("hedged run took %v, unhedged %v: hedging did not bound the straggler", hedgedWall, plainWall)
	}
	if hedgedSt.HedgesIssued != 1 {
		t.Errorf("hedged run issued %d hedges, want 1", hedgedSt.HedgesIssued)
	}
	// The hedge fired before the straggler's TTL: nothing ever expired.
	if hedgedSt.LeasesExpired != 0 {
		t.Errorf("hedged run expired %d leases, want 0 (the hedge preempts expiry)", hedgedSt.LeasesExpired)
	}
	if plainSt.LeasesExpired == 0 {
		t.Errorf("unhedged run expired no lease; the scenario lost its straggler")
	}
}

// TestHedgeThresholdPerChunk: with adaptive leases one job mixes small
// and large leases, so the hedge threshold scales with each lease's own
// chunk count. Two cold 4-chunk leases take 200ms each (50ms per chunk),
// then a straggler takes a 20-chunk lease. At age 500ms that lease has
// outlived HedgeFactor × the whole-lease p99 (2 × 200ms) but not its own
// budget (2 × 50ms × 20 = 2s), so it is not hedged; at 2.5s it is.
func TestHedgeThresholdPerChunk(t *testing.T) {
	ctx := context.Background()
	spec := testJob(128 * 64)
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	fc := fault.NewFakeClock(time.Unix(0, 0))
	c, err := NewCoordinator(ctx, spec, CoordinatorOptions{
		Clock:           fc,
		LeaseTTL:        10 * time.Second,
		Hedge:           true,
		HedgeFactor:     2,
		HedgeMinSamples: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.grant("w1")
	b, _ := c.grant("w2")
	fc.Advance(200 * time.Millisecond)
	deliverRange(t, c, runner, "w1", a.Lease.ID, a.Lease.Chunks)
	deliverRange(t, c, runner, "w2", b.Lease.ID, b.Lease.Chunks)

	// (10s/10) / 50ms = 20 chunks; the cap ⌈120/(2·3)⌉ = 20 agrees.
	big, _ := c.grant("s")
	if big.Lease == nil || big.Lease.Chunks != (sim.ChunkRange{Lo: 8, Hi: 28}) {
		t.Fatalf("straggler lease = %+v, want [8,28)", big)
	}
	// w1 finishes everything else at once, leaving only the straggler's
	// range outstanding. Its instant deliveries keep the p99 at 50ms.
	for {
		lr, _ := c.grant("w1")
		if lr.Lease == nil {
			break
		}
		deliverRange(t, c, runner, "w1", lr.Lease.ID, lr.Lease.Chunks)
	}

	fc.Advance(500 * time.Millisecond)
	if lr, _ := c.grant("w2"); !lr.None || lr.Lease != nil {
		t.Fatalf("grant at straggler age 500ms = %+v, want None (inside its 2s budget)", lr)
	}
	fc.Advance(2 * time.Second)
	hedge, _ := c.grant("w2")
	if hedge.Lease == nil || hedge.Lease.Chunks != big.Lease.Chunks {
		t.Fatalf("grant at straggler age 2.5s = %+v, want a hedge of %v", hedge, big.Lease.Chunks)
	}
	deliverRange(t, c, runner, "w2", hedge.Lease.ID, hedge.Lease.Chunks)
	if st := c.Status(); !st.Complete || st.HedgesIssued != 1 || st.LeasesExpired != 0 {
		t.Errorf("status = complete %v, %d hedges, %d expired; want true, 1, 0", st.Complete, st.HedgesIssued, st.LeasesExpired)
	}
	got, _, err := c.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := reference(t, spec); got != want {
		t.Errorf("hedged estimate %q != reference %q", got, want)
	}
}

// TestCorruptUploadQuarantine: a worker whose uploads keep failing the
// CRC envelope is blacklisted after QuarantineCorrupt strikes — no
// further leases, metric incremented, a "quarantine" span recorded —
// while the job completes through the remaining workers with the
// reference estimate.
func TestCorruptUploadQuarantine(t *testing.T) {
	ctx := context.Background()
	spec := testJob(320)
	var traceBuf bytes.Buffer
	tr := span.New(&traceBuf, span.Options{Service: "coord"})
	c, err := NewCoordinator(ctx, spec, CoordinatorOptions{
		LeaseChunks:       2,
		QuarantineCorrupt: 2,
		Tracer:            tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// "evil" posts garbage twice; each bounces 422 (corrupt-in-transit)
	// and is charged to the header-named worker.
	for i := 0; i < 2; i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/result", strings.NewReader("not an envelope"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(WorkerHeader, "evil")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("corrupt upload %d status = %d, want 422", i, resp.StatusCode)
		}
	}

	// Strike two crossed the threshold: no lease for evil, ever.
	if lr, _ := c.grant("evil"); !lr.Quarantined || lr.Lease != nil {
		t.Fatalf("quarantined grant = %+v, want Quarantined with no lease", lr)
	}

	// The remaining worker finishes the job; the estimate is untouched.
	w := &Worker{Coordinator: ts.URL, ID: "good", Workers: 2}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("good worker: %v", err)
	}
	if !c.Done() {
		t.Fatal("job not done after the good worker finished")
	}
	got, _, err := c.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := reference(t, spec); got != want {
		t.Errorf("estimate %q != reference %q", got, want)
	}

	st := c.Status()
	if st.WorkersQuarantined != 1 {
		t.Errorf("WorkersQuarantined = %d, want 1", st.WorkersQuarantined)
	}
	var evil *WorkerStatus
	for i := range st.Workers {
		if st.Workers[i].Worker == "evil" {
			evil = &st.Workers[i]
		}
	}
	if evil == nil || !evil.Quarantined || evil.Corrupt != 2 {
		t.Errorf("evil's status = %+v, want quarantined with 2 corrupt uploads", evil)
	}

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := span.Read(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	var q *span.Record
	for i := range recs {
		if recs[i].Name == "quarantine" {
			q = &recs[i]
		}
	}
	if q == nil {
		t.Fatal("no quarantine span recorded")
	}
	if q.AttrStr("worker") != "evil" || q.AttrStr("reason") != "corrupt-uploads" {
		t.Errorf("quarantine span attrs = %v, want worker=evil reason=corrupt-uploads", q.Attrs)
	}
}

// TestWorkerQuarantinedExit: the worker pull loop reads the Quarantined
// lease response as a typed, permanent dismissal.
func TestWorkerQuarantinedExit(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, LeaseResponse{None: true, Quarantined: true})
	}))
	defer ts.Close()
	w := &Worker{Coordinator: ts.URL, ID: "w"}
	if err := w.Run(context.Background()); err != ErrWorkerQuarantined {
		t.Fatalf("Run = %v, want ErrWorkerQuarantined", err)
	}
}

// TestWorkerLateDeliveryCoordinatorGone: the coordinator grants a lease
// and is gone by the time the result is uploaded (it merged the last
// chunk from another worker and exited), so every upload attempt dies
// on the transport. Having reached the coordinator before, the worker
// reads that as the normal end of the job, the rule Run applies to
// lease requests, and exits cleanly.
func TestWorkerLateDeliveryCoordinatorGone(t *testing.T) {
	ctx := context.Background()
	c, err := NewCoordinator(ctx, testJob(64), CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inner := c.Handler()
	var uploads atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/result" {
			uploads.Add(1)
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var (
		mu  sync.Mutex
		log strings.Builder
	)
	w := &Worker{
		Coordinator: ts.URL, ID: "w", Workers: 1,
		Retry: fault.RetryPolicy{Attempts: 2, Base: time.Millisecond, Cap: time.Millisecond},
		Report: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&log, format+"\n", args...)
		},
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("Run = %v, want nil once the coordinator has gone\nlog:\n%s", err, log.String())
	}
	if got := uploads.Load(); got != 2 {
		t.Errorf("%d upload attempts reached the server, want 2 (the retry policy's attempts)", got)
	}
	if !strings.Contains(log.String(), "assuming the job is finished") {
		t.Errorf("worker log does not report the vanished coordinator:\n%s", log.String())
	}
}

// TestAdmissionControlSheds: with MaxInflightRPCs 1, a second
// concurrent fabric RPC bounces 429 with a Retry-After hint instead of
// queueing on the coordinator, and the shed counter records it. Once
// the slot frees, service resumes.
func TestAdmissionControlSheds(t *testing.T) {
	ctx := context.Background()
	spec := testJob(320)
	c, err := NewCoordinator(ctx, spec, CoordinatorOptions{MaxInflightRPCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Occupy the only slot with a result upload whose body never
	// finishes arriving — the handler parks in ReadAll holding the slot.
	pr, pw := io.Pipe()
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/result", pr)
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled upload never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/lease", "application/json", strings.NewReader(`{"worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("lease under load = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 carried Retry-After %q, want a positive second count", ra)
	}

	// The ops probe is never shed.
	sresp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Errorf("status under load = %d, want 200 (unshedded)", sresp.StatusCode)
	}

	pw.Close() // EOF: the stalled upload fails CRC and frees the slot
	<-stalled
	deadline = time.Now().Add(5 * time.Second)
	for c.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission slot never freed")
		}
		time.Sleep(time.Millisecond)
	}
	resp2, err := http.Post(ts.URL+"/v1/lease", "application/json", strings.NewReader(`{"worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("lease after drain = %d, want 200", resp2.StatusCode)
	}
	if st := c.Status(); st.RPCsShed < 1 {
		t.Errorf("RPCsShed = %d, want >= 1", st.RPCsShed)
	}
}

// TestWorkerHonors429RetryAfter: a shed lease RPC makes the worker wait
// out the server's Retry-After — far past its own 1ms backoff schedule
// — before retrying and completing the job.
func TestWorkerHonors429RetryAfter(t *testing.T) {
	ctx := context.Background()
	spec := testJob(64) // one chunk: a single lease finishes the job
	c, err := NewCoordinator(ctx, spec, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var shedOnce atomic.Bool
	inner := c.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/lease" && shedOnce.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "fabric: coordinator overloaded", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	fc := fault.NewFakeClock(time.Unix(0, 0))
	w := &Worker{
		Coordinator: ts.URL, ID: "w", Workers: 2, Clock: fc,
		Retry: fault.RetryPolicy{
			Attempts: 4, Base: time.Millisecond, Cap: time.Millisecond,
			Clock: fc, Jitter: func() float64 { return 1.0 },
		},
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// The retry backoff parks on the fake clock: the policy's own wait
	// is 1ms, but the Retry-After hint floors it at 1s.
	deadline := time.Now().Add(5 * time.Second)
	for fc.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never parked on the backoff clock")
		}
		time.Sleep(time.Millisecond)
	}
	fc.Advance(500 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("worker finished (%v) before the Retry-After hint elapsed", err)
	case <-time.After(50 * time.Millisecond):
	}
	fc.Advance(500 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("worker after 429: %v", err)
	}
	if !c.Done() {
		t.Error("job not done after the worker's retry")
	}
}
