package main

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one entry of the benchmark's metric catalog. The catalog is
// the single source of the names, units and directions that
// BENCHMARK.json declares; TestCatalogMatchesBenchmarkJSON keeps the two
// in step.
type metric struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees, reported with --trace 0.
// Every workload reports every one of them (job_s is the workload's own
// unit of work; see README.md).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"job_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is reported with --trace 1. A layer the workload does not
// exercise reads 0 with a sample count of 0.
var perLayer = []metric{
	{"mdp.explore_s", "s", "lower"},
	{"mdp.states", "count", "lower"},
	{"mdp.branches", "count", "lower"},
	{"mdp.bytes_per_state", "B", "lower"},
	{"mdp.states_per_s", "1/s", "higher"},
	{"core.arrows_s", "s", "lower"},
	{"core.arrow.A1_s", "s", "lower"},
	{"core.arrow.A3_s", "s", "lower"},
	{"core.arrow.A11_s", "s", "lower"},
	{"core.arrow.A14_s", "s", "lower"},
	{"core.arrow.A15_s", "s", "lower"},
	{"core.proof_s", "s", "lower"},
	{"core.composed_s", "s", "lower"},
	{"mdp.expected_s", "s", "lower"},
	{"mdp.qualitative_s", "s", "lower"},
	{"sim.chunks", "count", "lower"},
	{"sim.chunk_ms_p50", "ms", "lower"},
	{"sim.chunk_ms_p99", "ms", "lower"},
	{"sim.events_per_trial", "count", "lower"},
	{"sim.compile_states", "count", "lower"},
	{"sim.compile_miss_s", "s", "lower"},
	{"sim.compile_miss_share", "frac", "lower"},
	{"fabric.leases", "count", "lower"},
	{"fabric.rpcs_lease", "count", "lower"},
	{"fabric.rpcs_result", "count", "lower"},
	{"fabric.rpcs_heartbeat", "count", "lower"},
	{"fabric.serve_lease_ms_p50", "ms", "lower"},
	{"fabric.serve_lease_ms_p99", "ms", "lower"},
	{"fabric.serve_result_ms_p50", "ms", "lower"},
	{"fabric.serve_result_ms_p99", "ms", "lower"},
	{"fabric.rpc_ms_p50", "ms", "lower"},
	{"fabric.rpc_ms_p99", "ms", "lower"},
	{"fabric.bytes_up_per_trial", "B", "lower"},
	{"fabric.leases_expired", "count", "lower"},
	{"fabric.duplicates", "count", "lower"},
	{"fabric.useful_frac", "frac", "higher"},
	{"fabric.finalize_s", "s", "lower"},
	{"fabric.slowdown", "ratio", "lower"},
	{"fabric.lease_wait_s", "s", "lower"},
	{"fabric.compute_s", "s", "lower"},
	{"fabric.rpc_s", "s", "lower"},
	{"fabric.merge_s", "s", "lower"},
	{"sim.artifact_saves", "count", "lower"},
	{"sim.artifact_bytes_written", "B", "lower"},
	{"sim.artifact_fsyncs", "count", "lower"},
	{"sim.artifact_save_s", "s", "lower"},
	{"obs.trace_overhead_frac", "frac", "lower"},
}

// layers collects per-layer samples during traced jobs. A scalar gets one
// sample per traced job and reports their median; a distribution pools
// individual observations (one per chunk, per RPC) and is reported as
// percentiles under derived names. Safe for concurrent use: wrappers
// observe from engine and HTTP goroutines.
type layers struct {
	mu      sync.Mutex
	scalars map[string][]float64
	dists   map[string][]float64
}

func newLayers() *layers {
	return &layers{scalars: map[string][]float64{}, dists: map[string][]float64{}}
}

// set records one per-job sample of a scalar metric.
func (l *layers) set(name string, v float64) {
	l.mu.Lock()
	l.scalars[name] = append(l.scalars[name], v)
	l.mu.Unlock()
}

// observe records one observation of a distribution; it is reported as
// name_p50 and name_p99.
func (l *layers) observe(name string, v float64) {
	l.mu.Lock()
	l.dists[name] = append(l.dists[name], v)
	l.mu.Unlock()
}

// since observes the milliseconds elapsed since t0 into a distribution.
func (l *layers) since(name string, t0 time.Time) {
	l.observe(name, float64(time.Since(t0))/float64(time.Millisecond))
}

// value returns a catalog metric's reported value and its sample count.
func (l *layers) value(name string) (float64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.scalars[name]; ok {
		return median(s), len(s)
	}
	for suffix, q := range map[string]float64{"_p50": 0.50, "_p99": 0.99} {
		if base, ok := strings.CutSuffix(name, suffix); ok && len(l.dists[base]) > 0 {
			return quantile(l.dists[base], q), len(l.dists[base])
		}
	}
	return 0, 0
}

// median is the middle of xs (the mean of the middle two for even
// length); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
