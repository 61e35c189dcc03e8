package fabric

// Tests for adaptive lease sizing. With LeaseChunks unset, each lease
// covers about LeaseTTL/10 of work at the median measured per-chunk
// turnaround, capped at ⌈pending/(2·live workers)⌉. Every test runs on a
// FakeClock, so the turnaround — and with it every lease size — is
// exact. The lease size is scheduling only: chunks stay 64 trials and
// merge by index, so the finalized line must still equal reference().

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// leaseLen is the chunk count of a granted lease.
func leaseLen(lr LeaseResponse) int { return lr.Lease.Chunks.Hi - lr.Lease.Chunks.Lo }

// drainLeases grants leases to the workers in turn, advancing the clock
// by perChunk × the lease's chunk count before delivering each one, until
// the job is done. Before each grant, check (when non-nil) sees the
// pending chunk count and the lease granted.
func drainLeases(t *testing.T, c *Coordinator, runner Runner, fc *fault.FakeClock, perChunk time.Duration,
	check func(pending int, lr LeaseResponse), workers ...string) {
	t.Helper()
	for i := 0; !c.Done(); i++ {
		w := workers[i%len(workers)]
		pending := c.Status().ChunksPending
		lr, _ := c.grant(w)
		if lr.Lease == nil {
			t.Fatalf("%s got no lease with %d chunks pending: %+v", w, pending, lr)
		}
		if check != nil {
			check(pending, lr)
		}
		fc.Advance(perChunk * time.Duration(leaseLen(lr)))
		deliverRange(t, c, runner, w, lr.Lease.ID, lr.Lease.Chunks)
	}
}

// TestLeaseSizing pins the sizing rule: 4 chunks before any lease has
// been timed; ⌊(TTL/10)/perChunk⌋ once one has; never more than
// ⌈pending/(2·live)⌉ and never empty; and a fixed LeaseChunks overrides
// all of it.
func TestLeaseSizing(t *testing.T) {
	ctx := context.Background()
	spec := testJob(200 * 64) // 200 chunks
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	fc := fault.NewFakeClock(time.Unix(0, 0))
	c, err := NewCoordinator(ctx, spec, CoordinatorOptions{Clock: fc, LeaseTTL: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	first, _ := c.grant("w1")
	if first.Lease == nil || first.Lease.Chunks != (sim.ChunkRange{Lo: 0, Hi: 4}) {
		t.Fatalf("first lease = %+v, want the cold default [0,4)", first)
	}
	// A 40ms turnaround over 4 chunks: 10ms per chunk.
	fc.Advance(40 * time.Millisecond)
	deliverRange(t, c, runner, "w1", first.Lease.ID, first.Lease.Chunks)
	// GET /v1/status shows both inputs of the sizer.
	status, err := json.Marshal(c.Status())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"lease_chunks_last":4`, `"chunk_ms_median":10`} {
		if !strings.Contains(string(status), field) {
			t.Fatalf("status after one delivery lacks %s: %s", field, status)
		}
	}
	// (3s/10) / 10ms = 30 chunks; the cap ⌈196/(2·1)⌉ = 98 does not bind.
	second, _ := c.grant("w1")
	if second.Lease == nil || second.Lease.Chunks != (sim.ChunkRange{Lo: 4, Hi: 34}) {
		t.Fatalf("second lease = %+v, want (TTL/10)/perChunk = 30 chunks [4,34)", second)
	}
	if st := c.Status(); st.LeaseChunksLast != 30 {
		t.Errorf("lease_chunks_last = %d, want 30", st.LeaseChunksLast)
	}
	fc.Advance(300 * time.Millisecond)
	deliverRange(t, c, runner, "w1", second.Lease.ID, second.Lease.Chunks)

	// Two workers drain the rest at 10ms per chunk; both stay live (the
	// whole job spans well under 2·TTL), so the cap is ⌈pending/4⌉ and
	// binds once fewer than 120 chunks remain.
	capped := 0
	drainLeases(t, c, runner, fc, 10*time.Millisecond, func(pending int, lr LeaseResponse) {
		limit := (pending + 3) / 4 // ≥ 1: a lease is never empty
		if n, want := leaseLen(lr), min(30, limit); n != want {
			t.Fatalf("lease %v with %d pending: %d chunks, want %d (cap %d)", lr.Lease.Chunks, pending, n, want, limit)
		}
		if limit < 30 {
			capped++
		}
	}, "w2", "w1")
	if capped == 0 {
		t.Error("the pending/(2·live) cap never bound")
	}
	got, _, err := c.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := reference(t, spec); got != want {
		t.Errorf("adaptive-lease estimate %q != single-process %q", got, want)
	}

	// A fixed LeaseChunks ignores the measurements: [0,2), [2,4), ...
	// however long each lease took.
	fc2 := fault.NewFakeClock(time.Unix(0, 0))
	fixed, err := NewCoordinator(ctx, spec, CoordinatorOptions{Clock: fc2, LeaseChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, took := range []time.Duration{time.Millisecond, 500 * time.Millisecond, 0, 2 * time.Millisecond} {
		lr, _ := fixed.grant("w1")
		if want := (sim.ChunkRange{Lo: 2 * i, Hi: 2*i + 2}); lr.Lease == nil || lr.Lease.Chunks != want {
			t.Fatalf("fixed lease %d = %+v, want %v", i, lr, want)
		}
		fc2.Advance(took)
		deliverRange(t, fixed, runner, "w1", lr.Lease.ID, lr.Lease.Chunks)
	}
}

// TestExpiredAdaptiveLeaseReassignedWhole: a worker goes dark holding a
// large adaptive lease. At expiry every one of its chunks returns to
// the pool and is re-granted, as one lease, to the next worker; the
// dark worker's late delivery is dropped as duplicates, and the job
// still finalizes to the single-process line.
func TestExpiredAdaptiveLeaseReassignedWhole(t *testing.T) {
	ctx := context.Background()
	spec := testJob(200 * 64)
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	fc := fault.NewFakeClock(time.Unix(0, 0))
	c, err := NewCoordinator(ctx, spec, CoordinatorOptions{Clock: fc, LeaseTTL: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := c.grant("w1")
	fc.Advance(40 * time.Millisecond) // 10ms per chunk
	deliverRange(t, c, runner, "w1", cold.Lease.ID, cold.Lease.Chunks)

	big, _ := c.grant("w1")
	if big.Lease == nil || big.Lease.Chunks != (sim.ChunkRange{Lo: 4, Hi: 34}) {
		t.Fatalf("large lease = %+v, want [4,34)", big)
	}
	// w1 goes silent; the TTL lapses.
	fc.Advance(4 * time.Second)
	re, _ := c.grant("w2")
	if re.Lease == nil || re.Lease.Chunks != big.Lease.Chunks {
		t.Fatalf("re-grant = %+v, want w1's whole range %v", re, big.Lease.Chunks)
	}
	if st := c.Status(); st.LeasesExpired != 1 || st.ChunksReassigned != 30 {
		t.Errorf("status after expiry = %d expired / %d reassigned, want 1 / 30", st.LeasesExpired, st.ChunksReassigned)
	}
	fc.Advance(300 * time.Millisecond)
	deliverRange(t, c, runner, "w2", re.Lease.ID, re.Lease.Chunks)
	drainLeases(t, c, runner, fc, 10*time.Millisecond, nil, "w2")

	// w1 comes back and delivers the range it lost: all duplicates.
	if resp := deliverRange(t, c, runner, "w1", big.Lease.ID, big.Lease.Chunks); resp.Accepted != 0 || resp.Duplicates != 30 {
		t.Errorf("w1 late delivery = %+v, want 0 accepted, 30 duplicates", resp)
	}
	got, _, err := c.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := reference(t, spec); got != want {
		t.Errorf("estimate after reassignment %q != single-process %q", got, want)
	}
}

// TestLingerAnswersLateWorker: a worker whose first lease request
// arrives after the last chunk landed and the estimate was finalized is
// told Done by a lingering coordinator and exits cleanly; Linger returns
// once one LeaseTTL has passed on the coordinator's clock.
func TestLingerAnswersLateWorker(t *testing.T) {
	ctx := context.Background()
	spec := testJob(8 * 64)
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	fc := fault.NewFakeClock(time.Unix(0, 0))
	const ttl = 3 * time.Second
	c, err := NewCoordinator(ctx, spec, CoordinatorOptions{Clock: fc, LeaseTTL: ttl, LeaseChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	drainLeases(t, c, runner, fc, 10*time.Millisecond, nil, "early")
	if _, _, err := c.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	lingered := make(chan struct{})
	go func() {
		c.Linger(ctx)
		close(lingered)
	}()
	for fc.Waiters() == 0 {
		runtime.Gosched()
	}

	late := &Worker{Coordinator: ts.URL, ID: "late", Workers: 1, Clock: fc}
	if err := late.Run(ctx); err != nil {
		t.Fatalf("late worker: %v", err)
	}
	if st := c.Status(); st.LeasesGranted != 2 {
		t.Errorf("late worker was granted work: %d leases in all, want 2", st.LeasesGranted)
	}

	fc.Advance(ttl - time.Millisecond)
	select {
	case <-lingered:
		t.Fatal("Linger returned before one LeaseTTL")
	default:
	}
	fc.Advance(time.Millisecond)
	select {
	case <-lingered:
	case <-time.After(10 * time.Second):
		t.Fatal("Linger did not return after one LeaseTTL")
	}
}
