// Command perfbench is the repository benchmark. It drives one workload of
// the MoSConS pipeline from outside the program, checks that every answer is
// the offline pipeline's answer, and prints the result as the last line of
// its standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics BENCHMARK.json lists; with
// --trace 1 it re-drives the same work through each layer's public entry
// point inside timed spans and reports the per-layer metrics. README.md in
// this directory explains each workload and metric.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed is the seed later performance claims re-check on after tuning
// on others; no tuning of this benchmark used it.
const heldOutSeed = 1000003

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the program sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"ok_frac", "frac"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of them;
// a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"latency_p50_ms_low", "ms"},
	{"latency_p90_ms_low", "ms"},
	{"latency_p50_ms_high", "ms"},
	{"latency_p99_ms_high", "ms"},
	{"uploads_per_s", "1/s"},
	{"devices_per_s", "1/s"},
	{"error_frac", "frac"},
	{"letter_acc", "frac"},
	{"layer_acc", "frac"},
	{"hp_acc", "frac"},
	{"serve.extract_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.shed", "count"},
	{"serve.failed", "count"},
	{"serve.cancelled", "count"},
	{"trace.read_ms", "ms"},
	{"attack.featurize_ms", "ms"},
	{"attack.split_ms", "ms"},
	{"lstm.predict_ms", "ms"},
	{"attack.other_ms", "ms"},
	{"attack.extract_ms", "ms"},
	{"attack.stage_sum_frac", "frac"},
	{"attack.samples_mean", "count"},
	{"attack.long_share", "frac"},
	{"attack.fallback_frac", "frac"},
	{"eval.collect_s", "s"},
	{"attack.train_s", "s"},
	{"trace.collect_ms", "ms"},
	{"trace.samples", "count"},
	{"gpu.sched_slices", "count"},
	{"gpu.slices_per_s", "1/s"},
	{"fleet.parallel_efficiency", "frac"},
	{"fleet.modelsets_trained", "count"},
	{"fleet.modelsets_shared", "count"},
	{"fleet.retried", "count"},
	{"fleet.quarantined", "count"},
	{"bench.gen_lag_ms_p99", "ms"},
	{"bench.late_sends", "count"},
	{"bench.samples_low", "count"},
	{"bench.samples_high", "count"},
	{"bench.trace_overhead_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// workers bounds every pool, listener slot set and connection count the
	// benchmark creates: the host's CPU count.
	workers int
	// outDir receives the traced run's span dump.
	outDir string
}

// report is what a workload measured.
type report struct {
	metrics map[string]float64
	tally   tally
	// problems are failed correctness gates or invalidating conditions;
	// any problem marks the run incorrect.
	problems []string
	// notes are human-readable details (sample counts, spans file).
	notes []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(ctx context.Context, o options) (*report, error)
	// extraProc runs the workload with GOMAXPROCS one above the CPU count.
	extraProc bool
}

var workloads = []workload{
	{"serve-open", runServeOpen, true},
	{"fleet-campaign", runFleetCampaign, false},
	{"fleet-collect", runFleetCollect, false},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve-open, fleet-campaign or fleet-collect")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", o.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	o.workers = runtime.NumCPU()
	o.outDir = filepath.Join(".bench_build", "spans")
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	if wl.extraProc {
		// The load generator shares the process with the daemon. One P
		// beyond the CPU count keeps its timers and sockets serviced while
		// MaxInFlight extractions hold a P each, as a separate client
		// process would be by the OS scheduler.
		runtime.GOMAXPROCS(o.workers + 1)
	}

	stamp, err := json.Marshal(environment(o))
	if err != nil {
		return err
	}
	fmt.Println("env", string(stamp))

	ctx := context.Background()
	rep, err := wl.run(ctx, o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	out, err := assemble(o, rep)
	if err != nil {
		return err
	}
	for _, n := range rep.notes {
		fmt.Println("note", n)
	}
	for _, p := range rep.problems {
		fmt.Println("problem", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// assemble checks the report against the metric lists and builds the result
// line: with tracing off every end-to-end metric must have been measured;
// with tracing on, per-layer metrics of layers the workload bypasses read 0.
func assemble(o options, rep *report) (resultOut, error) {
	out := resultOut{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.tally.attempted(),
		Failed:    rep.tally.failed(),
		Metrics:   map[string]metricOut{},
	}
	if out.Attempted == 0 {
		return out, errors.New("no operation was attempted")
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !o.trace {
			return out, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

// environment is the stamp every result is recorded with.
func environment(o options) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"scale":         "tiny",
		"cpu_model":     cpuModel(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_rev":       gitRev(),
		"src_sha256":    sourceDigest("."),
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is the checked-out commit, or "none" outside a git work tree (the
// source digest then identifies the code).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file under root (outside
// build output), in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// allocatedMB is the heap memory the process has allocated since it started.
func allocatedMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
