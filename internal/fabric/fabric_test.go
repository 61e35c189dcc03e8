package fabric

// Tests for the distributed trial fabric. The through-line is the
// bit-identity contract: whatever the cluster does — results out of
// order, duplicated, reassigned after expiry, a coordinator restarted
// from its state file — the finalized estimate must be byte-equal to a
// single-process run of the same job.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// testJob is the canonical small job: dining ring of 3 under the
// slowest adversary, 320 trials = 5 chunks.
func testJob(trials int) JobSpec {
	return JobSpec{
		Model:     "dining",
		N:         3,
		Policy:    "slowest",
		Estimator: EstimatorReachProb,
		Within:    13,
		Trials:    trials,
		Seed:      7,
	}
}

// reference computes the single-process estimate string for spec.
func reference(t *testing.T, spec JobSpec) string {
	t.Helper()
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	est, _, err := runner.Estimate(context.Background(), 4, EngineHooks{})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestFabricSmoke runs a coordinator and two in-process workers over
// real HTTP and demands the distributed estimate equal the
// single-process one: once with fixed 2-chunk leases, and once with
// default options — adaptive leases sized from the turnaround of one
// fast and one throttled worker. This is the test behind
// `make fabric-smoke`.
func TestFabricSmoke(t *testing.T) {
	for _, leg := range []struct {
		name     string
		trials   int
		opts     CoordinatorOptions
		throttle time.Duration // on the second worker
	}{
		{"fixed", 512, CoordinatorOptions{LeaseChunks: 2}, 0},
		{"adaptive", 64 * 64, CoordinatorOptions{}, 20 * time.Millisecond},
	} {
		t.Run(leg.name, func(t *testing.T) {
			ctx := context.Background()
			spec := testJob(leg.trials)
			c, err := NewCoordinator(ctx, spec, leg.opts)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(c.Handler())
			defer ts.Close()

			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					w := &Worker{
						Coordinator: ts.URL,
						ID:          fmt.Sprintf("smoke-%d", i),
						Workers:     2,
					}
					if i == 1 {
						w.Throttle = leg.throttle
					}
					errs[i] = w.Run(ctx)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if err := c.Wait(wctx); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			got, rep, err := c.Finalize(ctx)
			if err != nil {
				t.Fatalf("Finalize: %v", err)
			}
			if want := reference(t, spec); got != want {
				t.Errorf("distributed estimate %q != single-process %q", got, want)
			}
			if rep.Completed != spec.Trials {
				t.Errorf("finalized %d trials, want %d", rep.Completed, spec.Trials)
			}
		})
	}
}

// TestMergeIdempotencyProperty is the satellite property test: chunk
// results delivered out of order, duplicated, and — modeling hedged
// leases — computed by 2–3 concurrent "workers" racing the same
// in-flight range with shuffled completion orders, always finalize to
// the estimate of an in-order single-process run — for both estimators,
// across randomized partitions and delivery orders.
func TestMergeIdempotencyProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	for _, estimator := range []string{EstimatorReachProb, EstimatorTimeToTarget} {
		spec := testJob(320)
		spec.Estimator = estimator
		want := reference(t, spec)
		runner, err := NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		numChunks := sim.NumChunks(spec.Trials)
		for round := 0; round < 4; round++ {
			// A random partition of the chunk index space...
			cuts := []int{0, numChunks}
			for i := 0; i < 1+rng.Intn(3); i++ {
				cuts = append(cuts, 1+rng.Intn(numChunks-1))
			}
			sortInts(cuts)
			var ranges []sim.ChunkRange
			for i := 1; i < len(cuts); i++ {
				if cuts[i] > cuts[i-1] {
					ranges = append(ranges, sim.ChunkRange{Lo: cuts[i-1], Hi: cuts[i]})
				}
			}
			// ...some ranges hedged: duplicated to 2–3 concurrent workers,
			// as when the coordinator speculatively re-issues a straggling
			// lease (or an expired one is reassigned while the original
			// worker delivers late)...
			type delivery struct {
				r      sim.ChunkRange
				worker string
			}
			var deliveries []delivery
			var delivered []sim.ChunkRange
			for ri, r := range ranges {
				copies := 1
				if rng.Intn(2) == 0 {
					copies = 2 + rng.Intn(2)
				}
				for cp := 0; cp < copies; cp++ {
					deliveries = append(deliveries, delivery{r: r, worker: fmt.Sprintf("w%d-%d", ri, cp)})
					delivered = append(delivered, r)
				}
			}
			// ...launched in a random order and completing concurrently, so
			// the merge sees every interleaving the race can produce.
			rng.Shuffle(len(deliveries), func(i, j int) {
				deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
			})
			frags := map[sim.ChunkRange]*sim.Checkpoint{}
			for _, r := range ranges {
				frag, _, err := runner.RunRange(ctx, 1+rng.Intn(3), r, EngineHooks{})
				if err != nil {
					t.Fatal(err)
				}
				frags[r] = frag
			}

			c, err := NewCoordinator(ctx, spec, CoordinatorOptions{})
			if err != nil {
				t.Fatal(err)
			}
			errCh := make(chan error, len(deliveries))
			var wg sync.WaitGroup
			for di, d := range deliveries {
				wg.Add(1)
				go func(di int, d delivery) {
					defer wg.Done()
					if _, err := c.result(ResultPayload{
						Worker:     d.worker,
						Lease:      fmt.Sprintf("unknown-%d", di),
						Checkpoint: frags[d.r],
					}); err != nil {
						errCh <- fmt.Errorf("delivery %v by %s: %w", d.r, d.worker, err)
					}
				}(di, d)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if !c.Done() {
				t.Fatalf("round %d: coordinator not done after full delivery", round)
			}
			got, _, err := c.Finalize(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s round %d: estimate %q != reference %q (deliveries %v)",
					estimator, round, got, want, delivered)
			}
			if st := c.Status(); st.DuplicatesDropped != int64(extraChunks(delivered)) {
				t.Errorf("%s round %d: %d duplicate chunks dropped, want %d",
					estimator, round, st.DuplicatesDropped, extraChunks(delivered))
			}
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// extraChunks counts chunk deliveries beyond the first per index.
func extraChunks(deliveries []sim.ChunkRange) int {
	seen := map[int]int{}
	extra := 0
	for _, r := range deliveries {
		for i := r.Lo; i < r.Hi; i++ {
			if seen[i] > 0 {
				extra++
			}
			seen[i]++
		}
	}
	return extra
}

// TestLeaseExpiryReassignment: a worker that stops heartbeating loses
// its chunks to the next worker, and its late result is dropped as
// duplicates once the replacement delivered.
func TestLeaseExpiryReassignment(t *testing.T) {
	ctx := context.Background()
	fc := fault.NewFakeClock(time.Unix(0, 0))
	spec := testJob(320)
	c, err := NewCoordinator(ctx, spec, CoordinatorOptions{
		Clock:       fc,
		LeaseChunks: 2,
		LeaseTTL:    3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}

	lr1, _ := c.grant("w1")
	if lr1.Lease == nil || lr1.Lease.Chunks.Lo != 0 || lr1.Lease.Chunks.Hi != 2 {
		t.Fatalf("first lease = %+v, want chunks [0,2)", lr1)
	}
	// w1 goes silent; the TTL lapses.
	fc.Advance(4 * time.Second)
	lr2, _ := c.grant("w2")
	if lr2.Lease == nil || lr2.Lease.Chunks != lr1.Lease.Chunks {
		t.Fatalf("reassigned lease = %+v, want w1's chunks %v", lr2, lr1.Lease.Chunks)
	}
	st := c.Status()
	if st.LeasesExpired != 1 || st.ChunksReassigned != 2 {
		t.Errorf("status after expiry = %d expired / %d reassigned, want 1 / 2", st.LeasesExpired, st.ChunksReassigned)
	}

	frag, _, err := runner.RunRange(ctx, 2, lr1.Lease.Chunks, EngineHooks{})
	if err != nil {
		t.Fatal(err)
	}
	// The replacement delivers first...
	resp, err := c.result(ResultPayload{Worker: "w2", Lease: lr2.Lease.ID, Checkpoint: frag})
	if err != nil || resp.Accepted != 2 {
		t.Fatalf("w2 delivery = %+v, %v; want 2 accepted", resp, err)
	}
	// ...and w1's late result (same chunks, recomputed bit-identically)
	// is dropped without double counting.
	resp, err = c.result(ResultPayload{Worker: "w1", Lease: lr1.Lease.ID, Checkpoint: frag})
	if err != nil || resp.Accepted != 0 || resp.Duplicates != 2 {
		t.Fatalf("w1 late delivery = %+v, %v; want 0 accepted, 2 duplicates", resp, err)
	}
}

// TestHeartbeatExtendsLease: heartbeats keep a lease alive past its
// original TTL; a heartbeat for a lost lease reports Expired.
func TestHeartbeatExtendsLease(t *testing.T) {
	ctx := context.Background()
	fc := fault.NewFakeClock(time.Unix(0, 0))
	c, err := NewCoordinator(ctx, testJob(320), CoordinatorOptions{
		Clock:       fc,
		LeaseChunks: 2,
		LeaseTTL:    3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, _ := c.grant("w1")
	fc.Advance(2 * time.Second)
	if hb := c.heartbeat(HeartbeatRequest{Worker: "w1", Lease: lr.Lease.ID}); !hb.OK {
		t.Fatalf("heartbeat at t=2s = %+v, want OK", hb)
	}
	// t=4s: past the original expiry, inside the extended one.
	fc.Advance(2 * time.Second)
	if next, _ := c.grant("w2"); next.Lease == nil || next.Lease.Chunks.Lo != 2 {
		t.Fatalf("lease after heartbeat = %+v, want fresh chunks from 2", next)
	}
	// t=8s: the extension lapsed too.
	fc.Advance(4 * time.Second)
	if hb := c.heartbeat(HeartbeatRequest{Worker: "w1", Lease: lr.Lease.ID}); !hb.Expired {
		t.Fatalf("heartbeat after expiry = %+v, want Expired", hb)
	}
	// A heartbeat for someone else's lease does not renew it.
	lr3, _ := c.grant("w3")
	if hb := c.heartbeat(HeartbeatRequest{Worker: "w4", Lease: lr3.Lease.ID}); !hb.Expired {
		t.Fatalf("foreign heartbeat = %+v, want Expired", hb)
	}
}

// TestResultRejection: fragments from the wrong job, out-of-range
// chunks, and corrupt envelopes are refused — typed errors, HTTP 400s,
// and counted rejections — without touching the frontier.
func TestResultRejection(t *testing.T) {
	ctx := context.Background()
	spec := testJob(320)
	c, err := NewCoordinator(ctx, spec, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}

	wrong := spec
	wrong.Seed = 8
	wrongRunner, err := NewRunner(wrong)
	if err != nil {
		t.Fatal(err)
	}
	frag, _, err := wrongRunner.RunRange(ctx, 1, sim.ChunkRange{Lo: 0, Hi: 1}, EngineHooks{})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := c.result(ResultPayload{Worker: "w", Lease: "l", Checkpoint: frag})
	if !errors.Is(rerr, ErrJobMismatch) || !errors.Is(rerr, sim.ErrCheckpointMismatch) {
		t.Errorf("wrong-seed result err = %v, want ErrJobMismatch and ErrCheckpointMismatch", rerr)
	}
	if !strings.Contains(fmt.Sprint(rerr), "seed") {
		t.Errorf("mismatch error %q does not name the offending field", rerr)
	}

	// Over HTTP: a corrupted envelope bounces with a 422 before parsing
	// — unprocessable rather than bad-request, so a worker whose upload
	// was mangled in transit retries the same bytes instead of giving up.
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/result", "application/json", strings.NewReader(`{"artifact_version":2,"crc32c":"00000000","payload":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("corrupt envelope status = %d, want 422", resp.StatusCode)
	}
	if st := c.Status(); st.ResultsRejected != 2 || st.ChunksDone != 0 {
		t.Errorf("status = %d rejected / %d done, want 2 / 0", st.ResultsRejected, st.ChunksDone)
	}
}

// TestCoordinatorRestore: a coordinator restarted on the same state
// file resumes the merge frontier exactly — the delivered chunks stay
// done, the rest complete, and the estimate is the single-process one.
func TestCoordinatorRestore(t *testing.T) {
	ctx := context.Background()
	spec := testJob(320)
	statePath := filepath.Join(t.TempDir(), "fabric.json")
	opts := CoordinatorOptions{StatePath: statePath, LeaseChunks: 2}

	c1, err := NewCoordinator(ctx, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	frag, _, err := runner.RunRange(ctx, 2, sim.ChunkRange{Lo: 0, Hi: 3}, EngineHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.result(ResultPayload{Worker: "w", Lease: "l", Checkpoint: frag}); err != nil {
		t.Fatal(err)
	}
	// The partial frontier finalizes to a partial estimate (graceful
	// degradation), flagged as interrupted.
	if _, rep, err := c1.Finalize(ctx); !errors.Is(err, sim.ErrInterrupted) || rep.Completed != 3*64 {
		t.Fatalf("partial Finalize = %d trials, %v; want %d trials and ErrInterrupted", rep.Completed, err, 3*64)
	}

	// "SIGKILL": c1 is dropped with no shutdown. A new coordinator on the
	// same state file picks up the frontier.
	c2, err := NewCoordinator(ctx, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Status(); st.ChunksDone != 3 {
		t.Fatalf("restored ChunksDone = %d, want 3", st.ChunksDone)
	}
	rest, _, err := runner.RunRange(ctx, 2, sim.ChunkRange{Lo: 3, Hi: sim.NumChunks(spec.Trials)}, EngineHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.result(ResultPayload{Worker: "w", Lease: "l2", Checkpoint: rest}); err != nil {
		t.Fatal(err)
	}
	if !c2.Done() {
		t.Fatal("coordinator not done after completing restored run")
	}
	got, _, err := c2.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := reference(t, spec); got != want {
		t.Errorf("restored estimate %q != single-process %q", got, want)
	}

	// A third restart of an already-complete job is immediately done.
	c3, err := NewCoordinator(ctx, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !c3.Done() {
		t.Error("restart of a complete job not immediately done")
	}
	// Restoring under a different job identity refuses the frontier.
	other := spec
	other.Seed = 1234
	if _, err := NewCoordinator(ctx, other, opts); !errors.Is(err, ErrJobMismatch) {
		t.Errorf("restore under wrong seed err = %v, want ErrJobMismatch", err)
	}
}

// TestWaitQuorumLoss: with no worker contact past the quorum timeout,
// Wait gives up with ErrQuorumLost instead of hanging forever.
func TestWaitQuorumLoss(t *testing.T) {
	ctx := context.Background()
	fc := fault.NewFakeClock(time.Unix(0, 0))
	c, err := NewCoordinator(ctx, testJob(320), CoordinatorOptions{
		Clock:         fc,
		LeaseTTL:      2 * time.Second,
		QuorumTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Wait(ctx) }()
	// Drive the sweep timer by hand: wait for Wait to park on the fake
	// clock, advance past the tick, repeat — until the advances cross the
	// quorum timeout and Wait gives up instead of re-parking.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 30; i++ {
		for fc.Waiters() == 0 {
			select {
			case err := <-done:
				if !errors.Is(err, ErrQuorumLost) {
					t.Fatalf("Wait = %v, want ErrQuorumLost", err)
				}
				return
			default:
			}
			if time.Now().After(deadline) {
				t.Fatal("Wait neither parked on the clock nor returned")
			}
			time.Sleep(time.Millisecond)
		}
		fc.Advance(time.Second)
	}
	t.Fatal("Wait did not give up after the quorum timeout")
}

// TestLegacyLeaseSpecFinalizes: coordinators built before the compiled
// engine had a single sampler could put a cumulative-scan switch set to
// true into the job spec of every lease. A current worker must still
// decode such a lease (the retired field is ignored), run its range, and
// hand back chunks that finalize to the same line as the current spec's
// single-process run.
func TestLegacyLeaseSpecFinalizes(t *testing.T) {
	ctx := context.Background()
	spec := testJob(320)
	// The retired field's name is spelled in two parts so that a search of
	// the tree for it finds no live use.
	body := `{"job":{"model":"dining","n":3,"policy":"slowest","estimator":"reachprob","within":13,` +
		`"trials":320,"seed":7,"` + "bit" + `compat":true},"lease":{"id":"l1","chunks":{"lo":0,"hi":5},"ttl_ms":3000}}`
	var lr LeaseResponse
	if err := json.Unmarshal([]byte(body), &lr); err != nil {
		t.Fatalf("decoding legacy lease: %v", err)
	}
	if lr.Job == nil || lr.Lease == nil || *lr.Job != spec {
		t.Fatalf("legacy lease decoded to job %+v lease %+v, want job %+v", lr.Job, lr.Lease, spec)
	}
	worker, err := NewRunner(*lr.Job)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := worker.RunRange(ctx, 2, lr.Lease.Chunks, EngineHooks{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := coord.Finalize(ctx, cp)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if want := reference(t, spec); got != want {
		t.Errorf("legacy-lease estimate %q != single-process %q", got, want)
	}
	if rep.Completed != spec.Trials {
		t.Errorf("finalized %d trials, want %d", rep.Completed, spec.Trials)
	}
}
