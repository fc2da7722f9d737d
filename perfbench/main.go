// Command perfbench is the repository's benchmark: one command that sets
// up a workload from a seed, drives the program closed-loop for a fixed
// time, checks every output, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run, which also writes a
// trace-event JSON file). README.md beside this file records why each
// workload exists and which end-to-end metric each layer metric moves.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload train-sketch --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed operation or output
// check makes the command exit non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 3

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, in report order. Every
// workload reports all of them. On a shared host, operation times drift
// with the other tenants by more than any bound could absorb (README.md),
// so they are printed beside the metrics, not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_alloc_mib", "MiB"},
	{"valid_logloss", "nats"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics of the traced run. A workload whose operations
// do not reach a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"ingest.cold_s", "s"},
	{"ingest.load_s", "s"},
	{"sketch.canonical_s", "s"},
	{"prep.sketch.comp_s", "s"},
	{"core.prep_s", "s"},
	{"core.tree_s", "s"},
	{"core.sim_tree_s", "s"},
	{"train.gradient.comp_s", "s"},
	{"train.histogram.comp_s", "s"},
	{"train.split.comp_s", "s"},
	{"train.node.comp_s", "s"},
	{"train.update.comp_s", "s"},
	{"transform.comp_s", "s"},
	{"core.worker_busy_s", "s"},
	{"core.unattributed_share", "ratio"},
	{"core.worker_imbalance", "ratio"},
	{"histogram.peak_mib", "MiB"},
	{"comm.bytes_per_tree", "B"},
	{"comm.sim_s_per_tree", "s"},
	{"stream.fraction", "ratio"},
	{"predict.row_us", "us"},
	{"predict.batch64_us", "us"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"serve.outside_handler_share", "ratio"},
	{"serve.rejected", "count"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.gc_per_op", "count"},
	{"trace.overhead", "ratio"},
}

// bench is one workload: set up from the seed, then measured.
type bench interface {
	// setUp builds the workload's inputs under dir. It runs setupReps
	// times; each call replaces the previous call's state.
	setUp(r *runner, dir string, span int64) error
	// run drives the timed window, runs the output checks and sets the
	// workload's metrics.
	run(r *runner) error
	// close releases what the last set-up holds.
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() bench{
	"train-sketch": func() bench { return newTrainBench(trainSketch) },
	"train-vero":   func() bench { return newTrainBench(trainVero) },
	"train-ooc":    func() bench { return newTrainBench(trainOOC) },
	"serve-mixed":  func() bench { return &serveBench{} },
}

// runner carries one run's settings and collects its results.
type runner struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil on the untraced run
	checks  tally
	metrics map[string]float64
	samples map[string]int
	notes   []string // report lines printed after the metrics
}

// set records a metric with the number of samples behind it.
func (r *runner) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// noteTimes reports the window's operation times, which are printed but
// not gated: the median wall-clock latency with its sample count, the
// p99, the highest tail percentile with enough samples beyond it,
// operations per second, and CPU time per operation. It records the CPU
// time as runtime.cpu_ms_per_op.
func (r *runner) noteTimes(lat []float64, ops int, window, cpuMs float64) {
	t := summarize(lat)
	line := fmt.Sprintf("time: op median %.4g ms, p99 %.4g ms", t.Median, quantile(lat, 0.99))
	if t.TailP > 0 {
		line += fmt.Sprintf(", p%g %.4g ms", t.TailP, t.Tail)
	}
	r.note("%s (n=%d); %.5g ops/s; CPU %.4g ms per op", line, t.N, float64(ops)/window, cpuMs)
	r.set("runtime.cpu_ms_per_op", cpuMs, t.N)
}

// traced reports whether this is the traced run.
func (r *runner) traced() bool { return r.tr != nil }

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for the untraced one")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and the trace")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &runner{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		metrics: make(map[string]float64),
		samples: make(map[string]int),
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	b := mk()
	defer b.close()
	if err := setUp(r, b, dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	if err := b.run(r); err != nil {
		r.checks.record(err) // a run that breaks off still reports, as a failed operation
	}
	r.set("peak_rss_mib", peakRSSMiB(), 1)

	stamp := machineStamp()
	stamp["workload"], stamp["seed"], stamp["trace"] = *name, strconv.FormatInt(*seed, 10), strconv.Itoa(*trace)
	stamp["seconds"] = strconv.FormatFloat(*seconds, 'g', -1, 64)
	if r.traced() {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := writeTraceFile(path, r.tr.snapshot(), stamp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
			return 1
		}
		r.note("trace written to %s", path)
	}
	return report(r, stamp)
}

// setUp runs the workload's set-up setupReps times, each in a fresh
// directory, and records setup_s as their median CPU time.
func setUp(r *runner, b bench, dir string) error {
	var secs, walls []float64
	prev := ""
	for i := 0; i < setupReps; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		id := r.tr.reserve()
		start, cpu0 := time.Now(), cpuTime()
		if err := b.setUp(r, sub, id); err != nil {
			return err
		}
		end := time.Now()
		r.tr.addID(id, "setup", 0, 1, start, end)
		secs = append(secs, (cpuTime() - cpu0).Seconds())
		walls = append(walls, end.Sub(start).Seconds())
		if prev != "" {
			if err := os.RemoveAll(prev); err != nil {
				return err
			}
		}
		prev = sub
	}
	r.set("setup_s", median(secs), len(secs))
	r.note("time: set-up median wall %.4g s (n=%d)", median(walls), len(walls))
	return nil
}

func writeTraceFile(path string, spans []span, meta map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTrace(f, spans, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the stamped human-readable report, then the result line,
// and returns the exit code.
func report(r *runner, stamp map[string]string) int {
	defs := endToEnd
	if r.traced() {
		defs = perLayer
	}
	attempted, failed, first := r.checks.counts()
	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricOut)}
	if attempted == 0 {
		first = errors.New("no operation was attempted")
	}

	st, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", st)
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) { // would not encode; only a zero base produces one
			v = 0
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("%-30s %14.6g %-6s n=%d\n", d.name, v, d.unit, r.samples[d.name])
	}
	fmt.Printf("%-30s %14.6g %-6s n=%d\n", "error_ratio", ratio(float64(failed), float64(attempted)), "ratio", attempted)
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	if r.traced() {
		printSelfTimes(r.tr.snapshot())
	}
	if first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", first)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printSelfTimes lists total self time per span name, largest first.
func printSelfTimes(spans []span) {
	byName := selfByName(spans)
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	for _, n := range names {
		fmt.Printf("# self %-24s %10.4f s\n", n, byName[n].Seconds())
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuTime returns the CPU time the process has used, user plus system.
// Unlike wall time it excludes the time a shared host's other tenants
// take from this machine's virtual CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// machineStamp records where a result came from: CPU model, core count,
// GOMAXPROCS, Go version and the commit the binary was built from.
func machineStamp() map[string]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" && commit != "unknown" {
				commit += "+dirty"
			}
		}
	}
	return map[string]string{
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
