package fabric

// The worker: a pull loop against one coordinator. Ask for a lease, run
// its chunk range through the local parallel engine while a background
// goroutine heartbeats the lease alive, wrap the resulting checkpoint
// fragment in a checksummed envelope, and post it back. Every RPC runs
// under fault.RetryPolicy.DoCtx, so transient transport faults are
// absorbed with backoff+jitter and a cancelled context stops the loop
// promptly even mid-backoff.
//
// A worker is stateless between leases on purpose: everything it needs
// arrives inside the lease response (the JobSpec), and everything it
// produces leaves in the result. Killing a worker at any instant loses
// at most one lease's worth of work, which the coordinator reassigns at
// expiry.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

// Worker pulls leases from a coordinator and runs them. Configure the
// fields, then call Run.
type Worker struct {
	// Coordinator is the base URL, e.g. "http://127.0.0.1:9777".
	Coordinator string
	// ID names this worker in leases and logs; empty means worker-<pid>.
	ID string
	// Workers is the engine goroutine count per lease (0 = GOMAXPROCS).
	Workers int
	// Client is the HTTP client; nil means a 30s-timeout client.
	Client *http.Client
	// Retry paces RPC retries; the zero value means the fault defaults
	// (4 attempts, 5ms base, 250ms cap). Classification of permanent
	// failures (4xx) is installed by the worker itself.
	Retry fault.RetryPolicy
	// Clock times idle waits (all-leased backoff) and heartbeats; nil
	// means the wall clock.
	Clock fault.Clock
	// Throttle, when positive, pauses between finishing a lease's trials
	// and reporting its result, with the lease still held and
	// heartbeating. It exists for tests and demos that need a window in
	// which a worker provably owns unreported work (e.g. to SIGKILL it
	// there), and for rehearsing slow-worker behavior.
	Throttle time.Duration
	// Report, when non-nil, receives one line per lease settled (granted,
	// completed, expired) — the worker's operational log.
	Report func(format string, args ...any)
	// Breaker, when non-nil, wraps the transport leg of every RPC in a
	// circuit breaker: a run of consecutive transport failures (a dead
	// or partitioned coordinator address) opens it, and further
	// attempts fail instantly with fault.ErrBreakerOpen — transient, so
	// the retry policy keeps backing off without hammering the address.
	// HTTP responses of any status count as transport success.
	Breaker *fault.Breaker
	// Jitter draws the full-jitter fraction in [0, 1) for the
	// all-leased-out polling backoff, so a fleet of idle workers does
	// not stampede the coordinator in lockstep when a lease expires.
	// Nil uses the fault package's seeded source.
	Jitter func() float64
	// Tracer, when non-nil, records the worker's side of the job trace:
	// a "worker.lease" span per lease (parented under the coordinator's
	// "lease" span via the response headers), "chunk" spans per engine
	// chunk, "rpc.*" spans per RPC (whose IDs ride the request headers
	// so the coordinator's serve spans parent under them), and
	// "lease.wait" spans for all-leased-out backoffs. The tracer adopts
	// the coordinator's trace ID from the first response it sees.
	Tracer *span.Tracer

	runnerOnce sync.Once
	runner     Runner
	runnerErr  error
	// reached flips once any RPC has succeeded; after that, a coordinator
	// that stops answering entirely is read as "job finished, coordinator
	// retired" rather than an error (see Run).
	reached atomic.Bool
}

func (w *Worker) id() string {
	if w.ID != "" {
		return w.ID
	}
	return fmt.Sprintf("worker-%d", os.Getpid())
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (w *Worker) clock() fault.Clock {
	if w.Clock != nil {
		return w.Clock
	}
	return fault.Wall
}

func (w *Worker) report(format string, args ...any) {
	if w.Report != nil {
		w.Report(format, args...)
	}
}

// errPermanent marks an RPC failure retrying cannot fix (a 4xx: the
// request itself is wrong, or the coordinator rejected the payload).
// 429 (overload — back off and retry) and 422 (the upload was corrupted
// in transit; the local bytes are fine) are NOT permanent.
var errPermanent = errors.New("fabric: permanent rpc failure")

// retryAfterError is a 429 with the server's requested backoff; it
// implements fault.RetryAfterHint, so DoCtx floors the next wait at the
// server's ask.
type retryAfterError struct {
	status string
	after  time.Duration
}

func (e *retryAfterError) Error() string             { return e.status }
func (e *retryAfterError) RetryAfter() time.Duration { return e.after }

func (w *Worker) jitter() float64 {
	if w.Jitter != nil {
		return w.Jitter()
	}
	return fault.Uniform01()
}

// recordBreaker reports a transport outcome to the breaker, if any.
func (w *Worker) recordBreaker(err error) {
	if w.Breaker != nil {
		w.Breaker.Record(err)
	}
}

// retryPolicy is w.Retry with the DoCtx clock and the transient/
// permanent classifier installed.
func (w *Worker) retryPolicy() fault.RetryPolicy {
	p := w.Retry
	if p.Clock == nil {
		p.Clock = w.clock()
	}
	prev := p.Retryable
	p.Retryable = func(err error) bool {
		if errors.Is(err, errPermanent) {
			return false
		}
		if prev != nil {
			return prev(err)
		}
		return true // network errors, timeouts, 5xx: transient
	}
	return p
}

// post sends one JSON RPC under the retry policy and decodes the reply.
// body is pre-encoded so retries resend identical bytes. parent is the
// trace context the RPC span hangs under (zero for a root-level RPC);
// the returned SpanContext is the trace context the response headers
// carried — on a lease grant, the coordinator's "lease" span.
func (w *Worker) post(ctx context.Context, path string, body []byte, out any, parent span.SpanContext) (span.SpanContext, error) {
	// One span per RPC including its retries: the span duration is what
	// the caller waited, which is the latency that matters to the lease.
	sp := w.Tracer.Start("rpc."+strings.TrimPrefix(path, "/v1/"), parent)
	var got span.SpanContext
	err := w.retryPolicy().DoCtx(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("%w: %v", errPermanent, err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(WorkerHeader, w.id())
		span.Inject(sp.Context(), req.Header)
		// The breaker guards only the transport leg: getting any HTTP
		// response back is success (an open breaker means the address is
		// dead, not that the coordinator dislikes us). ErrBreakerOpen is
		// transient, so the retry policy's backoff keeps pacing attempts
		// without the breaker ever letting them touch the wire.
		if b := w.Breaker; b != nil {
			if err := b.Allow(); err != nil {
				return err
			}
		}
		resp, err := w.client().Do(req)
		if err != nil {
			w.recordBreaker(err)
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			w.recordBreaker(err)
			return err
		}
		w.recordBreaker(nil)
		if resp.StatusCode != http.StatusOK {
			err := fmt.Errorf("fabric: %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
			switch {
			case resp.StatusCode == http.StatusTooManyRequests:
				// Overload shed: honor the coordinator's Retry-After as
				// a floor on the next backoff.
				var after time.Duration
				if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
					after = time.Duration(secs) * time.Second
				}
				return &retryAfterError{status: err.Error(), after: after}
			case resp.StatusCode == http.StatusUnprocessableEntity:
				// The upload was corrupted in transit (failed the CRC
				// envelope); our bytes are good, so retrying resends them.
				return err
			case resp.StatusCode >= 400 && resp.StatusCode < 500:
				return fmt.Errorf("%w: %v", errPermanent, err)
			}
			return err
		}
		w.reached.Store(true)
		// Join the coordinator's trace the moment we first hear from it,
		// so every span this worker ends from here on carries the job's
		// trace ID (the trace field is stamped at End time).
		w.Tracer.AdoptTrace(resp.Header.Get(span.HeaderTraceID))
		got = span.Extract(resp.Header)
		return json.Unmarshal(data, out)
	})
	if err != nil {
		sp.End(span.Str("error", err.Error()))
	} else {
		sp.End()
	}
	return got, err
}

// jobRunner builds (once) the Runner for the job spec the coordinator
// sent. Every lease of one run carries the same spec, so the compiled
// model and its warm transition cache are shared across leases.
func (w *Worker) jobRunner(spec JobSpec) (Runner, error) {
	w.runnerOnce.Do(func() {
		w.runner, w.runnerErr = NewRunner(spec)
	})
	return w.runner, w.runnerErr
}

// Run pulls and executes leases until the coordinator reports the job
// done (returns nil) or ctx is cancelled (returns the cause). A lease
// the coordinator expires under us is abandoned mid-range and the loop
// continues — the chunks were already reassigned.
func (w *Worker) Run(ctx context.Context) error {
	id := w.id()
	for {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		body, err := json.Marshal(LeaseRequest{Worker: id})
		if err != nil {
			return err
		}
		var lr LeaseResponse
		hdr, err := w.post(ctx, "/v1/lease", body, &lr, span.SpanContext{})
		if err != nil {
			// The coordinator lives exactly as long as its job. Once we have
			// spoken to it successfully, its disappearing altogether is the
			// normal end of a run we didn't deliver the last chunk of — the
			// coordinator prints the estimate and exits the moment the final
			// result (from whichever worker) lands. A 4xx stays fatal: that
			// is the coordinator telling us our requests are wrong.
			if w.retired(ctx, err) {
				w.report("worker %s: coordinator unreachable after retries (%v); assuming the job is finished", id, err)
				return nil
			}
			return fmt.Errorf("fabric: requesting lease: %w", err)
		}
		switch {
		case lr.Done:
			w.report("worker %s: job complete, exiting", id)
			return nil
		case lr.Quarantined:
			w.report("worker %s: quarantined by coordinator, exiting", id)
			return ErrWorkerQuarantined
		case lr.None:
			wait := time.Duration(lr.RetryMs) * time.Millisecond
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			// Full jitter (U[0,1) of the advertised wait, floored at
			// 1ms): every idle worker lands on a different instant, so a
			// lease expiry does not trigger a thundering herd of
			// simultaneous re-polls.
			wait = time.Duration(w.jitter() * float64(wait))
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			ws := w.Tracer.Start("lease.wait", span.SpanContext{},
				span.Str("worker", id), span.Int64("wait_ms", wait.Milliseconds()))
			select {
			case <-w.clock().After(wait):
				ws.End()
			case <-ctx.Done():
				ws.End(span.Str("outcome", "cancelled"))
				return context.Cause(ctx)
			}
			continue
		case lr.Job == nil || lr.Lease == nil:
			return fmt.Errorf("fabric: malformed lease response (no job or lease)")
		}
		done, err := w.runLease(ctx, id, *lr.Job, *lr.Lease, hdr)
		if err != nil {
			return err
		}
		if done {
			// The result we just delivered completed the job: exit without
			// another lease round-trip (the coordinator may already be gone).
			w.report("worker %s: job complete, exiting", id)
			return nil
		}
	}
}

// runLease executes one lease: heartbeat goroutine + engine run +
// result upload. A lease lost to expiry is reported and skipped, not an
// error. done reports that this lease's result completed the job.
// parent is the coordinator's "lease" span context from the grant
// response headers; the worker's side of the lease nests under it.
func (w *Worker) runLease(ctx context.Context, id string, job JobSpec, l Lease, parent span.SpanContext) (done bool, err error) {
	runner, err := w.jobRunner(job)
	if err != nil {
		return false, fmt.Errorf("fabric: building runner for leased job: %w", err)
	}
	w.report("worker %s: lease %s chunks [%d,%d)", id, l.ID, l.Chunks.Lo, l.Chunks.Hi)

	ls := w.Tracer.Start("worker.lease", parent,
		span.Str("worker", id), span.Str("lease", l.ID),
		span.Int("lo", l.Chunks.Lo), span.Int("hi", l.Chunks.Hi))

	// The lease context is cancelled when the coordinator tells us the
	// lease expired — aborting the engine run and any pending RPC.
	lctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	ttl := time.Duration(l.TTLMs) * time.Millisecond
	hbEvery := ttl / 3
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hb, err := json.Marshal(HeartbeatRequest{Worker: id, Lease: l.ID})
		if err != nil {
			return
		}
		for {
			select {
			case <-lctx.Done():
				return
			case <-w.clock().After(hbEvery):
			}
			var resp HeartbeatResponse
			if _, err := w.post(lctx, "/v1/heartbeat", hb, &resp, ls.Context()); err != nil {
				if lctx.Err() != nil {
					return
				}
				// Heartbeats are best-effort: a failed renewal costs the
				// lease at worst, and the result upload is still idempotent.
				w.report("worker %s: heartbeat %s failed: %v", id, l.ID, err)
				continue
			}
			if resp.Expired {
				cancel(errLeaseExpired)
				return
			}
		}
	}()

	eng := Hooks(w.Tracer, ls.Context(),
		[]string{"fabric_job", job.Label(), "lease", l.ID}, span.Str("worker", id))
	cp, rep, runErr := runner.RunRange(lctx, w.Workers, l.Chunks, eng)
	if w.Throttle > 0 && runErr == nil {
		select {
		case <-w.clock().After(w.Throttle):
		case <-lctx.Done():
		}
	}
	uploadErr := error(nil)
	if runErr == nil && lctx.Err() == nil {
		done, uploadErr = w.deliver(lctx, id, l.ID, ls.Context(), cp, rep)
	}
	cancel(nil)
	wg.Wait()

	switch {
	case context.Cause(lctx) == errLeaseExpired:
		w.report("worker %s: lease %s expired, range [%d,%d) abandoned", id, l.ID, l.Chunks.Lo, l.Chunks.Hi)
		ls.End(span.Str("outcome", "expired"), span.Int("trials", rep.Completed))
		return false, nil
	case ctx.Err() != nil:
		ls.End(span.Str("outcome", "cancelled"))
		return false, context.Cause(ctx)
	case runErr != nil:
		ls.End(span.Str("outcome", "error"), span.Str("error", runErr.Error()))
		return false, fmt.Errorf("fabric: running lease %s: %w", l.ID, runErr)
	case uploadErr != nil && w.retired(ctx, uploadErr):
		// The same rule Run applies to lease requests: once the coordinator
		// has answered us, its vanishing means it merged the last chunk
		// (this lease expired under load and another worker finished it)
		// and exited.
		w.report("worker %s: coordinator unreachable delivering lease %s (%v); assuming the job is finished", id, l.ID, uploadErr)
		ls.End(span.Str("outcome", "coordinator-gone"))
		return true, nil
	case uploadErr != nil:
		ls.End(span.Str("outcome", "error"), span.Str("error", uploadErr.Error()))
		return false, fmt.Errorf("fabric: delivering lease %s result: %w", l.ID, uploadErr)
	}
	ls.End(span.Str("outcome", "delivered"), span.Int("trials", rep.Completed))
	return done, nil
}

var errLeaseExpired = errors.New("fabric: lease expired")

// retired reports whether a failed RPC means the coordinator has
// finished the job and exited: we reached it before, the failure is not
// a permanent refusal (a 4xx stays fatal: the coordinator is telling us
// our requests are wrong), and we are not being cancelled ourselves.
func (w *Worker) retired(ctx context.Context, err error) bool {
	return w.reached.Load() && !errors.Is(err, errPermanent) && ctx.Err() == nil
}

// deliver wraps the checkpoint fragment in a checksummed envelope and
// posts it. The envelope means a truncated or corrupted upload is
// refused by checksum on the coordinator side and simply retried here.
// done echoes the coordinator's job-complete signal.
func (w *Worker) deliver(ctx context.Context, id, leaseID string, parent span.SpanContext, cp *sim.Checkpoint, rep sim.RunReport) (done bool, err error) {
	payload, err := json.Marshal(ResultPayload{Worker: id, Lease: leaseID, Checkpoint: cp})
	if err != nil {
		return false, err
	}
	body, err := sim.EncodeEnvelope(payload)
	if err != nil {
		return false, err
	}
	var resp ResultResponse
	if _, err := w.post(ctx, "/v1/result", body, &resp, parent); err != nil {
		return false, err
	}
	w.report("worker %s: lease %s delivered: %d chunks accepted, %d duplicate (%d trials run)",
		id, leaseID, resp.Accepted, resp.Duplicates, rep.Completed)
	return resp.Done, nil
}
