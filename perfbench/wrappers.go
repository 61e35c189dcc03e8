package main

// Measurement wrappers around the packages' public seams. Each one
// observes and forwards; none changes what the wrapped code computes:
//
//   - countingModel counts and times the raw model queries sim.Compile
//     makes on a cache miss, and keeps the inner model's sched.Packer so
//     Compile still interns by packed key;
//   - countingFS counts what the artifact store writes and forwards every
//     Sync and SyncDir;
//   - rpcMeter wraps the coordinator's handler and the workers' transport
//     without touching request or response bodies or status codes;
//   - chunkTimer and eventCounter are sim.SpanHooks and sim.BatchMetrics.

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/pa"
	"repro/internal/sched"
)

// countingModel is a sched.Model that forwards to an inner model while
// counting Moves calls and timing every Moves and UserMoves call.
type countingModel[S comparable] struct {
	sched.Model[S]
	moves atomic.Int64 // Moves calls
	nanos atomic.Int64 // time inside Moves and UserMoves
}

func (m *countingModel[S]) Moves(s S, i int) []pa.Step[S] {
	t0 := time.Now()
	out := m.Model.Moves(s, i)
	m.nanos.Add(int64(time.Since(t0)))
	m.moves.Add(1)
	return out
}

func (m *countingModel[S]) UserMoves(s S, i int) []pa.Step[S] {
	t0 := time.Now()
	out := m.Model.UserMoves(s, i)
	m.nanos.Add(int64(time.Since(t0)))
	return out
}

// states is the number of distinct states the compiled cache queried:
// Compile asks Moves once per process per state it interns.
func (m *countingModel[S]) states() float64 {
	return float64(m.moves.Load()) / float64(m.NumProcs())
}

func (m *countingModel[S]) seconds() float64 {
	return time.Duration(m.nanos.Load()).Seconds()
}

// packedCountingModel adds the inner model's PackState, so a wrapped
// packer is still a sched.Packer.
type packedCountingModel[S comparable] struct {
	*countingModel[S]
	pack func(S) sched.Packed
}

func (m packedCountingModel[S]) PackState(s S) sched.Packed { return m.pack(s) }

// countModel wraps inner. The returned model is the one to hand to the
// engine; the counter reads its totals.
func countModel[S comparable](inner sched.Model[S]) (sched.Model[S], *countingModel[S]) {
	c := &countingModel[S]{Model: inner}
	if pk, ok := inner.(sched.Packer[S]); ok {
		return packedCountingModel[S]{countingModel: c, pack: pk.PackState}, c
	}
	return c, c
}

// countingFS is a fault.FS that forwards to an inner FS, counting saves
// (temp files created), bytes written, fsyncs of files and directories,
// and the time spent inside the filesystem calls of a save.
type countingFS struct {
	inner                fault.FS
	saves, bytes, fsyncs atomic.Int64
	nanos                atomic.Int64
}

func (f *countingFS) timed(t0 time.Time) { f.nanos.Add(int64(time.Since(t0))) }

func (f *countingFS) ReadFile(path string) ([]byte, error) { return f.inner.ReadFile(path) }

func (f *countingFS) CreateTemp(dir, pattern string) (fault.File, error) {
	defer f.timed(time.Now())
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	f.saves.Add(1)
	return &countingFile{File: file, fs: f}, nil
}

func (f *countingFS) Rename(oldpath, newpath string) error {
	defer f.timed(time.Now())
	return f.inner.Rename(oldpath, newpath)
}

func (f *countingFS) Remove(path string) error { return f.inner.Remove(path) }

func (f *countingFS) SyncDir(dir string) error {
	defer f.timed(time.Now())
	f.fsyncs.Add(1)
	return f.inner.SyncDir(dir)
}

// countingFile is the writable half of countingFS.
type countingFile struct {
	fault.File
	fs *countingFS
}

func (c *countingFile) Write(p []byte) (int, error) {
	defer c.fs.timed(time.Now())
	n, err := c.File.Write(p)
	c.fs.bytes.Add(int64(n))
	return n, err
}

func (c *countingFile) Sync() error {
	defer c.fs.timed(time.Now())
	c.fs.fsyncs.Add(1)
	return c.File.Sync()
}

func (c *countingFile) Close() error {
	defer c.fs.timed(time.Now())
	return c.File.Close()
}

// rpcMeter measures the fabric's RPCs from both ends: the server side
// through handler, the client side through transport.
type rpcMeter struct {
	l       *layers
	bytesUp atomic.Int64 // request body bytes of /v1/result
	calls   [3]atomic.Int64
}

// rpcRoutes indexes rpcMeter.calls.
var rpcRoutes = [3]string{"lease", "result", "heartbeat"}

func routeOf(path string) string { return strings.TrimPrefix(path, "/v1/") }

// handler times each request h serves. The request body is read through
// a byte counter; the response writer is h's own.
func (m *rpcMeter) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r.URL.Path)
		body := &countingReader{ReadCloser: r.Body}
		r.Body = body
		t0 := time.Now()
		h.ServeHTTP(w, r)
		for i, name := range rpcRoutes {
			if name == route {
				m.calls[i].Add(1)
			}
		}
		switch route {
		case "lease":
			m.l.since("fabric.serve_lease_ms", t0)
		case "result":
			m.l.since("fabric.serve_result_ms", t0)
			m.bytesUp.Add(body.n.Load())
		}
	})
}

// transport times each client round trip up to its response headers.
func (m *rpcMeter) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		t0 := time.Now()
		resp, err := base.RoundTrip(req)
		m.l.since("fabric.rpc_ms", t0)
		return resp, err
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type countingReader struct {
	io.ReadCloser
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// chunkTimer is a sim.SpanHooks that counts chunks and records every
// chunk's wall time.
type chunkTimer struct {
	l *layers
	n *atomic.Int64
}

func (c chunkTimer) ChunkStart(_, _ int) func(completed, quarantined int) {
	c.n.Add(1)
	t0 := time.Now()
	return func(int, int) { c.l.since("sim.chunk_ms", t0) }
}

// eventCounter is a sim.BatchMetrics that totals completed trials and
// their events (steps).
type eventCounter struct {
	trials, events atomic.Int64
}

func (e *eventCounter) TrialBatchDone(trials, _ int, events []int64, _ []float64, _ float64) {
	var sum int64
	for _, ev := range events {
		sum += ev
	}
	e.trials.Add(int64(trials))
	e.events.Add(sum)
}

func (e *eventCounter) TrialDone(_, events int, _ float64, _ bool, _ float64) {
	e.trials.Add(1)
	e.events.Add(int64(events))
}

func (*eventCounter) TrialQuarantined(int) {}
func (*eventCounter) TrialStalled(int)     {}
func (*eventCounter) ChunkActive(int)      {}
func (*eventCounter) ChunkDone(int, int)   {}
func (*eventCounter) TrialsRestored(int)   {}
func (*eventCounter) CheckpointSaved()     {}

func (e *eventCounter) perTrial() float64 {
	if t := e.trials.Load(); t > 0 {
		return float64(e.events.Load()) / float64(t)
	}
	return 0
}
