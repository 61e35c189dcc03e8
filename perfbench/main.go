// Command perfbench is the repository's end-to-end benchmark. Each
// invocation runs one workload in its own process for a fixed wall-clock
// budget, checks every output against an oracle before it reports a
// number, and prints one JSON result object as its last line:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: paper-table, dining-local, dining-fabric, consensus-mc.
// With --trace 0 the result carries the end-to-end metrics (setup_s,
// job_s, peak_rss_mb). With --trace 1 the run alternates untraced and
// traced jobs and the result carries the per-layer metrics, measured
// through wrappers around the packages' public seams, plus the tracing
// overhead. README.md gives the reason for every workload and metric.
//
// perfbench/run.sh builds this program from the checkout and runs it;
// an output mismatch prints a result with "correct": false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's settings, taken from the command line.
type config struct {
	seed   int64
	budget time.Duration
	trace  bool
	out    io.Writer // human-readable report lines
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	attempted, failed int
	setup             []float64 // seconds, one per set-up
	jobs              []float64 // seconds, one per untraced job
	traced            []float64 // seconds, one per traced job
	layers            *layers
	// rate names the user-facing form of the median job time: with
	// trialsPerJob set it is trialsPerJob / job_s, otherwise job_s itself.
	rate         string
	trialsPerJob int
}

// mismatch marks a failed output check: the run's operations all count
// as failed and the result reports "correct": false.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "output check failed: " + m.msg }

func mismatchf(format string, args ...any) error {
	return &mismatch{fmt.Sprintf(format, args...)}
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"paper-table":   runPaperTable,
	"dining-local":  runDiningLocal,
	"dining-fabric": runDiningFabric,
	"consensus-mc":  runConsensus,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: stdout}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "fingerprint %s\n", fingerprint())

	res, err := fn(context.Background(), cfg)
	correct := err == nil
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		if res == nil {
			res = &outcome{}
		}
		var mm *mismatch
		if !errors.As(err, &mm) && res.attempted == 0 {
			// Nothing was attempted: there is no result to report.
			return 1
		}
		res.attempted = max(res.attempted, 1)
		res.failed = res.attempted
	}
	fmt.Fprintf(stdout, "ops attempted=%d failed=%d failed_frac=%g\n",
		res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	if len(res.jobs) > 0 && res.rate != "" {
		v := median(res.jobs)
		if res.trialsPerJob > 0 {
			v = float64(res.trialsPerJob) / v
		}
		fmt.Fprintf(stdout, "%s=%.6g (median over %d jobs)\n", res.rate, v, len(res.jobs))
	}
	metrics := reportMetrics(stdout, res, cfg.trace)
	line, jerr := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportMetrics prints every metric of the run's kind with its sample
// count and returns them for the result line.
func reportMetrics(w io.Writer, res *outcome, trace bool) map[string]metricValue {
	out := map[string]metricValue{}
	put := func(m metric, v float64, n int) {
		out[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "metric %-28s %14.6g %-6s n=%d\n", m.name, v, m.unit, n)
	}
	if !trace {
		values := map[string]float64{
			"setup_s":     median(res.setup),
			"job_s":       median(res.jobs),
			"peak_rss_mb": peakRSSMB(),
		}
		counts := map[string]int{"setup_s": len(res.setup), "job_s": len(res.jobs), "peak_rss_mb": 1}
		for _, m := range endToEnd {
			put(m, values[m.name], counts[m.name])
		}
		return out
	}
	l := res.layers
	if l == nil {
		l = newLayers()
	}
	if len(res.jobs) > 0 && len(res.traced) > 0 {
		l.set("obs.trace_overhead_frac", median(res.traced)/median(res.jobs)-1)
	}
	for _, m := range perLayer {
		v, n := l.value(m.name)
		put(m, v, n)
	}
	return out
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint identifies the code and machine a result was measured on.
// The commit and source digest come from run.sh, which sees the checkout.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	env := func(k string) string {
		if v := os.Getenv(k); v != "" {
			return v
		}
		return "unknown"
	}
	return fmt.Sprintf("commit=%s source=%s go=%s cpu=%q nproc=%d gomaxprocs=%d",
		env("PERFBENCH_COMMIT"), env("PERFBENCH_SOURCE"), runtime.Version(), cpu,
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// loop calls job until the run's budget has elapsed: at least once, and
// in a traced run at least twice, since jobs then alternate untraced
// (even i) and traced (odd i). Every job starts from a collected heap, so
// none pays for its predecessor's garbage.
func loop(cfg config, job func(i int) error) error {
	atLeast := 1
	if cfg.trace {
		atLeast = 2
	}
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < cfg.budget; i++ {
		runtime.GC()
		if err := job(i); err != nil {
			return err
		}
	}
	return nil
}

// setupBatch is how long one set-up sample repeats the set-up: the mean
// over many repetitions is steady where one microsecond-scale build is
// dominated by timer resolution and cold caches.
const setupBatch = 5 * time.Millisecond

// setupTime repeats build for at least setupBatch and returns the mean
// wall time of one build in seconds. The builds are thrown away; the
// workload builds the objects it uses separately, untimed.
func setupTime(build func() error) (float64, error) {
	t0 := time.Now()
	for n := 1; ; n++ {
		if err := build(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d >= setupBatch {
			return d.Seconds() / float64(n), nil
		}
	}
}

// timed runs f and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}
