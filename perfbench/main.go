// Command perfbench is sortsynth's end-to-end benchmark. It drives the
// sortsynthd handler over loopback HTTP and the sortgen sorters from the
// outside, checks every answer with its own interpreter, and prints one
// JSON result line:
//
//	perfbench --workload cold-search|hot-serve|sortgen-run --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics, which every
// workload reports from its own phase: setup_s, peak_rss_mb, light_ms,
// heavy_ms and throughput_per_s. With --trace 1 it holds the per-layer
// metrics of a separate traced run, which sweeps every workload's layers
// in a fixed order whatever the workload, and the spans are written to
// <build dir>/perfbench/spans-*.jsonl when the run ends. See README.md
// for the workloads and PREDICTIONS.md for what each ROADMAP item should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the shared state of one benchmark invocation.
type run struct {
	seed    int64
	dur     time.Duration
	traced  bool
	workDir string // scratch space inside the build dir, removed at exit

	res    result
	tr     *tracer  // nil when untraced
	notes  []string // failure descriptions, printed to stderr
	report []string // extra report lines, printed before the result
}

// set records a metric. A metric with no samples behind it (NaN) is left
// out and counted as a failed operation.
func (r *run) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.attempt(fmt.Errorf("metric %s: no samples", name))
		return
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// attempt records one checked operation; a non-nil err is a failure.
func (r *run) attempt(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		if len(r.notes) < 50 {
			r.notes = append(r.notes, err.Error())
		}
	}
}

// wrong records an answer that the program returned and that is wrong:
// it fails the operation and marks the whole run incorrect.
func (r *run) wrong(err error) {
	r.res.Correct = false
	r.attempt(err)
}

// workloads maps each workload to its set-up and measured phase. setup
// returns the state the phase needs; it is also run alone in fresh
// child processes to time cold set-up.
var workloads = map[string]struct {
	setup func(r *run) (any, error)
	phase func(r *run, state any) error
}{
	"cold-search": {setupCold, phaseCold},
	"hot-serve":   {setupHot, phaseHot},
	"sortgen-run": {setupSort, phaseSort},
}

// sweep is the order in which the traced run visits every workload's
// layers. It is fixed, so a layer metric is measured the same way
// whichever workload asked for the traced run. cold-search comes first:
// it times the distance-table builds, which the universe bake of
// hot-serve would otherwise do untimed.
var sweep = []string{"cold-search", "hot-serve", "sortgen-run"}

// setupSamples is how many cold set-ups a run times: its own and
// setupSamples-1 child processes.
const setupSamples = 7

func main() {
	workload := flag.String("workload", "", "cold-search, hot-serve or sortgen-run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "time one set-up, print it and exit")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace == 1, *setupOnly); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds int, traced, setupOnly bool) error {
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	outDir, err := buildDir()
	if err != nil {
		return err
	}
	outDir = filepath.Join(outDir, "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	r := &run{
		seed: seed, dur: time.Duration(seconds) * time.Second,
		traced: traced, workDir: workDir,
		res: result{Correct: true, Metrics: map[string]metric{}},
	}
	if traced {
		r.tr = newTracer()
	}

	if traced {
		for _, name := range sweep {
			state, err := workloads[name].setup(r)
			if err != nil {
				return fmt.Errorf("%s set-up: %w", name, err)
			}
			if err := workloads[name].phase(r, state); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			debug.FreeOSMemory() // the next workload starts on a returned heap
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
		r.report = append(r.report, "spans: "+path)
	} else {
		t0 := time.Now()
		state, err := w.setup(r)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		own := time.Since(t0).Seconds()
		if setupOnly {
			fmt.Println(own)
			return nil
		}
		more, err := childSetups(workload, seed, seconds, setupSamples-1)
		if err != nil {
			return err
		}
		if err := w.phase(r, state); err != nil {
			return err
		}
		r.set("setup_s", "s", median(append(more, own)))
		r.set("peak_rss_mb", "MB", peakRSSMB())
	}
	if r.res.Attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}

	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "failure:", n)
	}
	host, _ := json.Marshal(hostRecord())
	fmt.Println("# host:", string(host))
	for _, line := range r.report {
		fmt.Println("#", line)
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// buildDir is the directory build outputs and scratch files go to:
// $CARGO_TARGET_DIR when set (relative to the working directory), else
// .bench_build.
func buildDir() (string, error) {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	return filepath.Abs(d)
}

// childSetups times n cold set-ups, each in a fresh process so that
// process-global caches (distance tables, heap) start empty as they do
// for the run's own set-up.
func childSetups(workload string, seed int64, seconds, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output() // waits for the child to exit
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostRecord names the machine a result was measured on.
func hostRecord() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": model, "go": runtime.Version(),
	}
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// geomean returns the geometric mean of xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
