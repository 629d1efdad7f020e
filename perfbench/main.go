// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints, as the last line of standard
// output, a JSON object with the correctness verdict, the operation
// counts and the metrics. It drives the program only through its public
// entry points: fetch.Analyze/fetch.AnalyzeFile with the fetch CLI's
// single-binary defaults, and a fetchd child process over loopback
// HTTP.
//
// Usage (from the repository root; run.sh builds this and fetchd):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	          --root DIR --fetchd BIN --work DIR
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 a
// separate traced run times the calls into each layer's exported
// functions and prints the per-layer metrics; its spans are written to
// the work directory when the run ends.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is the resolved command line shared by every workload.
type env struct {
	root, fetchd, work string
	// spans is where a traced run writes its spans when it ends.
	spans   string
	seed    int64
	seconds time.Duration
	trace   bool
	jobs    int
	// log receives provenance and failure lines; the result line goes
	// to standard output after it.
	log io.Writer
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// fail records one failed operation and why.
func (o *outcome) fail(e *env, format string, args ...any) {
	o.failed++
	fmt.Fprintf(e.log, "perfbench: FAIL "+format+"\n", args...)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*outcome, error){
	"libc-fetch":   runLibc,
	"gobin-xref":   runGobin,
	"fetchd-mixed": runFetchdMixed,
	// Smoke workloads check the benchmark itself on small inputs.
	"smoke-realbin": func(e *env) (*outcome, error) { return analysisLane(e, floor{}, smokeInputs) },
	"smoke-mix": func(e *env) (*outcome, error) {
		return fetchdMixed(e, smallFuncs, smallFuncs, nil)
	},
}

// endToEnd and perLayer are the metric names and units the benchmark
// reports; BENCHMARK.json lists the same names.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"cold_ms_p50": "ms",
	"hit_ms_p50":  "ms",
	"peak_rss_mb": "MB",
	"precision":   "ratio",
	"recall":      "ratio",
	"ok_share":    "ratio",
}

var perLayer = map[string]string{
	"elfx.load_ms":                "ms",
	"elfx.materialized_mb":        "MB",
	"ehframe.decode_ms":           "ms",
	"ehframe.fdes":                "count",
	"x64.decode_ns_per_inst":      "ns",
	"x64.allocs_per_inst":         "count",
	"disasm.extend_ms":            "ms",
	"disasm.insts_decoded":        "count",
	"disasm.reuse_ratio":          "ratio",
	"disasm.fixed_point_passes":   "count",
	"disasm.peak_aux_mb":          "MB",
	"xref.detect_ms":              "ms",
	"xref.rounds":                 "count",
	"xref.candidates":             "count",
	"xref.accepted":               "count",
	"xref.accept_ratio":           "ratio",
	"xref.probes":                 "count",
	"xref.probe_us":               "us",
	"tailcall.run_ms":             "ms",
	"tailcall.cfi_removed":        "count",
	"tailcall.merged":             "count",
	"tailcall.skipped_incomplete": "count",
	"callconv.validate_us":        "us",
	"callconv.reject_share":       "ratio",
	"core.pass.fde_ms":            "ms",
	"core.pass.recursive_ms":      "ms",
	"core.pass.xref_ms":           "ms",
	"core.pass.tailcall_ms":       "ms",
	"core.alloc_mb":               "MB",
	"codec.encode_us":             "us",
	"codec.decode_us":             "us",
	"codec.bytes":                 "bytes",
	"cache.mem_hit_us":            "us",
	"cache.disk_hit_us":           "us",
	"cache.delta_ms":              "ms",
	"cache.hit_ratio":             "ratio",
	"cache.delta_ratio":           "ratio",
	"cache.disk_mb":               "MB",
	"service.hit_ms_p95":          "ms",
	"service.queue_wait_ms_p95":   "ms",
	"service.peak_in_flight":      "count",
	"service.rejected":            "count",
	"loadgen.late_ms_p99":         "ms",
	"loadgen.offered_rps":         "1/s",
	"loadgen.achieved_rps":        "1/s",
	"trace.analysis_ms":           "ms",
	"trace.overhead_ratio":        "ratio",
	"trace.self_coverage":         "ratio",
	"share.elfx":                  "ratio",
	"share.ehframe":               "ratio",
	"share.disasm":                "ratio",
	"share.xref":                  "ratio",
	"share.tailcall":              "ratio",
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run parses the command line, runs the workload and prints the result
// line; it returns the process exit code. Errors that leave no valid
// measurement (bad flags, missing inputs, a changed fingerprint) exit
// non-zero without a result line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	root := fs.String("root", ".", "fetch source tree")
	fetchd := fs.String("fetchd", "", "fetchd binary built from the source tree")
	work := fs.String("work", "", "directory for caches, spools and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, sortedKeys(workloads))
		return 2
	case *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *work == "" || fs.NArg() > 0:
		fmt.Fprintln(stderr, "perfbench: need --seconds ≥ 1, --trace 0|1, --work DIR and no positional arguments")
		return 2
	}
	e := &env{
		root: *root, fetchd: *fetchd, work: *work, seed: *seed,
		spans:   filepath.Join(filepath.Dir(*work), "spans.json"),
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceFlag == 1, jobs: runtime.NumCPU(), log: stdout,
	}
	if err := os.RemoveAll(e.work); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d jobs=%d %s\n",
		*workload, *seed, *seconds, *traceFlag, e.jobs, runtime.Version())
	out, err := drive(e)
	// Leave the disk quiet for the next run: delete this run's caches
	// and spools and flush what they wrote.
	if rmErr := os.RemoveAll(e.work); rmErr != nil && err == nil {
		err = rmErr
	}
	syscall.Sync()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := endToEnd
	if e.trace {
		names = perLayer
	}
	res, err := finish(out, names)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// finish checks that the workload produced exactly the named metrics
// and attaches their units.
func finish(o *outcome, units map[string]string) (*result, error) {
	res := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range units {
		v, ok := o.metrics[name]
		if !ok {
			return nil, fmt.Errorf("workload did not measure %s", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	for name := range o.metrics {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("workload measured unlisted metric %s", name)
		}
	}
	if o.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// median returns the middle of xs (the mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100);
// xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(p/100*float64(len(xs)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads a process's peak resident set (VmHWM) from procfs.
func peakRSSMB(pid string) (float64, error) {
	blob, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(blob), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
