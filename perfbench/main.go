// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed wall-clock budget, checks
// the outputs, and prints a single JSON result line:
//
//	bash perfbench/run.sh --workload fleet-day --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is a separate, layer-attributed traced run that
// reports the per-layer metrics instead. Workloads, metrics and the
// layer map are documented in perfbench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// referenceToolchain is the Go toolchain every committed BENCH_* file
// and the figures in perfbench/README.md were recorded with. Results
// from another toolchain are flagged, not refused: comparisons across
// toolchains are then unreliable.
const referenceToolchain = "go1.24.0"

// endToEnd lists the --trace 0 metrics every workload reports, with
// their units. The names are shared by all four workloads; README.md
// gives each workload's definition.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"slo_violation_frac", "ratio"},
	{"cost_usd_per_vm_day", "usd"},
	{"repo_hit_ratio", "ratio"},
	{"adapt_s_mean", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the --trace 1 metrics. A layer a workload does not
// exercise reports 0: its share of that workload's cost is nil.
var perLayer = []metricSpec{
	{"sim.scenario_gen_s", "s"},
	{"core.learn_s", "s"},
	{"fleet.run_s", "s"},
	{"fleet.vm_run_p99_ms", "ms"},
	{"sim.engine_ns_per_step", "ns"},
	{"core.controller_ns_per_step", "ns"},
	{"core.lookup_us_p50", "us"},
	{"core.lookup_us_p99", "us"},
	{"core.lookups", "count"},
	{"core.gets", "count"},
	{"core.puts", "count"},
	{"core.lookup_hit_ratio", "ratio"},
	{"core.unforeseen_ratio", "ratio"},
	{"core.tune_calls", "count"},
	{"core.tune_us", "us"},
	{"core.tuner_cache_hit_ratio", "ratio"},
	{"core.classify_ns_per_row_foreseen", "ns"},
	{"core.classify_ns_per_row_unforeseen", "ns"},
	{"client.decide_us_p50", "us"},
	{"client.decide_us_p99", "us"},
	{"client.retries", "count"},
	{"proxy.hop_us", "us"},
	{"proxy.front_errors", "count"},
	{"replica.decide_us_p50", "us"},
	{"replica.failovers", "count"},
	{"wire.encode_ns_per_row", "ns"},
	{"wire.decode_ns_per_row", "ns"},
	{"server.inproc_us_per_req", "us"},
	{"server.decide_us_per_req", "us"},
	{"server.transport_us_per_req", "us"},
	{"server.ping_us", "us"},
	{"gen.decide_p50_us", "us"},
	{"gen.decide_p99_us", "us"},
	{"gen.lag_p99_us", "us"},
	{"gen.backlog_max", "count"},
	{"gen.sent", "count"},
	{"gen.failed", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_bytes_per_step", "B"},
	{"go.alloc_bytes_per_decision", "B"},
	{"trace.request_us", "us"},
	{"trace.layer_sum_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"finding.slo_drift_vs_workers1", "ratio"},
	{"finding.cost_drift_vs_workers1", "ratio"},
}

type metricSpec struct{ name, unit string }

// workloads maps each --workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run    func(*runCtx) error
	traced func(*runCtx) error
}{
	"fleet-day":    {runFleetDay, tracedFleetDay},
	"fleet-remote": {runFleetRemote, tracedFleetRemote},
	"fleet-tier":   {runFleetTier, tracedFleetTier},
	"decide-open":  {runDecideOpen, tracedDecideOpen},
}

// runCtx carries one invocation's parameters and collects its result.
type runCtx struct {
	workload string
	seed     int64
	budget   time.Duration
	spansDir string
	workers  int

	metrics   map[string]float64
	attempted int64
	failed    int64
	checkErrs []string
}

// set records one metric value.
func (rc *runCtx) set(name string, v float64) { rc.metrics[name] = v }

// checkf records a failed output check; the run then reports
// correct=false and exits non-zero.
func (rc *runCtx) checkf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	rc.checkErrs = append(rc.checkErrs, msg)
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
}

// notef prints an informational line (stamp, findings) to stdout,
// ahead of the final result line.
func notef(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func main() {
	workload := flag.String("workload", "", "workload to run: fleet-day, fleet-remote, fleet-tier or decide-open")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 runs the layer-attributed traced run instead of the timed one")
	spansDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fatalf("unknown --workload %q", *workload)
	}
	if *seconds < 1 || *seconds > 600 {
		fatalf("--seconds %d out of [1, 600]", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1, got %d", *traced)
	}
	rc := &runCtx{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		spansDir: *spansDir,
		workers:  runtime.NumCPU(),
		metrics:  map[string]float64{},
	}
	stamp(rc, *traced == 1)

	run, specs := w.run, endToEnd
	if *traced == 1 {
		run, specs = w.traced, perLayer
	}
	if err := run(rc); err != nil {
		fatalf("%s: %v", rc.workload, err)
	}
	if *traced == 0 {
		rc.set("rss_peak_mb", rssPeakMB())
	}
	if err := emit(rc, specs); err != nil {
		fatalf("%v", err)
	}
	if len(rc.checkErrs) > 0 || rc.failed > 0 {
		os.Exit(1)
	}
}

// stamp records what the result was measured on: the seed, the Go
// toolchain, GOMAXPROCS and the CPU count, and whether the toolchain
// differs from the one the reference figures were recorded with.
func stamp(rc *runCtx, traced bool) {
	st := map[string]any{
		"workload":            rc.workload,
		"seed":                rc.seed,
		"trace":               traced,
		"go":                  runtime.Version(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"nproc":               runtime.NumCPU(),
		"workers":             rc.workers,
		"reference_toolchain": referenceToolchain,
		"toolchain_differs":   runtime.Version() != referenceToolchain,
	}
	b, _ := json.Marshal(st) // map of plain values: cannot fail
	notef("stamp: %s", b)
	if runtime.Version() != referenceToolchain {
		fmt.Fprintf(os.Stderr, "perfbench: toolchain %s differs from the reference %s; compare only results made with one toolchain\n",
			runtime.Version(), referenceToolchain)
	}
}

// emit prints the result line: every metric of specs, by name and
// unit, and nothing else.
func emit(rc *runCtx, specs []metricSpec) error {
	out := make(map[string]map[string]any, len(specs))
	for _, s := range specs {
		v, ok := rc.metrics[s.name]
		if !ok {
			return fmt.Errorf("workload %s did not report metric %s", rc.workload, s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: metric %s is %v", rc.workload, s.name, v)
		}
		out[s.name] = map[string]any{"value": v, "unit": s.unit}
	}
	if rc.attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", rc.workload)
	}
	res := map[string]any{
		"correct":   len(rc.checkErrs) == 0 && rc.failed == 0,
		"attempted": rc.attempted,
		"failed":    rc.failed,
		"metrics":   out,
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// fatalf reports an error that prevents a result and exits 1 without
// printing one.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// median returns the median of xs (the mean of the middle pair for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// durQuantiles sorts ds in place and returns the requested quantiles
// in microseconds.
func durQuantiles(ds []time.Duration, qs ...float64) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	sort.Float64s(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(xs, q)
	}
	return out
}

// rssPeakMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status, falling back to the runtime's reserved memory
// where /proc is unavailable.
func rssPeakMB() float64 {
	if kb, err := readVmHWM(); err == nil {
		return float64(kb) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func readVmHWM() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line")
}

// gcDelta measures the Go runtime's GC and allocation work across fn.
type gcDelta struct {
	cycles     uint32
	pauseMs    float64
	allocBytes uint64
}

func measureGC(fn func() error) (gcDelta, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return gcDelta{
		cycles:     after.NumGC - before.NumGC,
		pauseMs:    float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
	}, err
}
