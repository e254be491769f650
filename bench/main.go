// Command waggle-bench is waggle's outside-in benchmark. It runs four
// workloads through the layers' public functions (the waggle facade,
// core, sim, protocol, wire/ckpt and the serve daemon), checks that
// every output is correct, and prints every metric by name with its
// unit. The last line of standard output is one JSON result:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}
//
// Usage (from the root of the repository; see README.md):
//
//	bash bench/run.sh --workload chat-async --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1 --out a1.json     # every workload, one child process each
//	bash bench/run.sh --seed 1 --trace 1 --spans spans.json --workload swarm-sync
//	bash bench/run.sh --compare a1.json a2.json -- b1.json b2.json
//
// Without tracing a run reports the end-to-end metrics; with --trace 1
// it runs the workload twice on the same seed, untraced and then traced,
// and reports the per-layer metrics and the tracing overhead.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs. The reasons for
// choosing each are in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(*env) (*report, error)
}

var workloads = []workload{
	{"chat-async", runChat},
	{"swarm-sync", runSwarm},
	{"serve-lo", runServe},
	{"ckpt-save", runCkptSave},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a workload runs with.
type env struct {
	seed    int64
	seconds time.Duration // the measured window
	smoke   bool          // tiny sizes, for tests
	work    string        // scratch directory, removed after the run
	tr      *tracer       // non-nil in a traced run
	out     io.Writer     // progress and per-layer lines
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.out, format+"\n", args...) }

// Set-up repeats until it has run at least minSetupReps times and for at
// least maxSetupTime or an eighth of the window, whichever is shorter, and
// at most maxSetupReps times, so that the median of a cheap set-up rests
// on many samples.
const (
	minSetupReps = 5
	maxSetupReps = 30
	maxSetupTime = time.Second
)

// setup builds the workload's system repeatedly, timing each build
// (discard, untimed, releases the previous one); the last build is the
// one measured. A traced run reports no setup_s and builds once. It ends
// by recording the live heap of the built system.
func (e *env) setup(rep *report, build func(i int) error, discard func() error) error {
	var total time.Duration
	for i := 0; i < maxSetupReps && (i < minSetupReps || total < min(maxSetupTime, e.seconds/8)); i++ {
		if i > 0 {
			if e.tr != nil {
				break
			}
			if err := discard(); err != nil {
				return err
			}
		}
		runtime.GC()
		d, err := timeIt(func() error { return build(i) })
		if err != nil {
			return err
		}
		total += d
		rep.setupS = append(rep.setupS, d.Seconds())
	}
	rep.heapMB = liveHeapMB()
	return nil
}

// report is what a workload measured. Without tracing, latMS, units,
// setupS and heapMB feed the end-to-end metrics; a traced run fills
// layer instead.
type report struct {
	attempted, failed int
	latMS             []float64  // per-op latency
	units             []workUnit // the run's work in order, for ops_per_s
	setupS            []float64  // each set-up of the run
	heapMB            float64
	layer             map[string]float64
}

func newReport() *report { return &report{layer: map[string]float64{}} }

// fail counts one failed op or verification mismatch and says why.
func (r *report) fail(e *env, format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		e.logf("FAIL: "+format, args...)
	}
}

// timeIt runs f and returns its duration.
func timeIt(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// outFile is the -out document: one result per workload plus the run's
// seed and host block.
type outFile struct {
	Schema  string            `json:"schema"`
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Trace   bool              `json:"trace"`
	Host    hostInfo          `json:"host"`
	Results map[string]result `json:"results"`
}

const outSchema = "waggle-bench/v2"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty or \"all\": every workload, each in its own child process)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 25, "length of the measured window")
		traceN  = flag.Int("trace", 0, "1: run untraced then traced and report the per-layer metrics")
		spans   = flag.String("spans", "", "traced run: write the spans to this file")
		out     = flag.String("out", "", "write the results with the host block to this file")
		smoke   = flag.Bool("smoke", false, "tiny sizes, seconds-long")
		work    = flag.String("work", ".bench_build/work", "scratch directory for files the workloads write")
		compare = flag.Bool("compare", false, "compare result files: A.json... -- B.json...")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark spec with the metric bounds (for -compare)")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(os.Stdout, *spec, flag.Args())
	case *traceN != 0 && *traceN != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traceN)
	case *name == "" || *name == "all":
		err = runAll(*seed, *seconds, *traceN == 1, *smoke, *work, *out)
	default:
		err = runOne(*name, *seed, *seconds, *traceN == 1, *smoke, *work, *spans, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "waggle-bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that completed but failed a correctness
// check: its result line is printed, and the exit code is 1.
var errIncorrect = errors.New("correctness checks failed")

// runOne runs one workload in this process and prints its result line.
func runOne(name string, seed int64, seconds float64, traced, smoke bool, workRoot, spansPath, outPath string) error {
	w, ok := findWorkload(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	work := filepath.Join(workRoot, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		smoke:   smoke,
		work:    work,
		out:     os.Stdout,
	}
	if traced {
		e.tr = newTracer(spansPath != "")
	}
	e.logf("workload %s seed %d seconds %g trace %v", name, seed, seconds, traced)
	rep, err := w.run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res := rep.result(traced)
	if traced && spansPath != "" {
		if err := e.tr.writeFile(spansPath); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	h := host(work)
	if outPath != "" {
		doc := outFile{Schema: outSchema, Seed: seed, Seconds: seconds, Trace: traced, Host: h,
			Results: map[string]result{name: res}}
		if err := writeJSONFile(outPath, doc); err != nil {
			return err
		}
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hb)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// result turns the report into the result line's metrics.
func (r *report) result(traced bool) result {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: r.layer[m.name], Unit: m.unit}
		}
		return res
	}
	vals := map[string]float64{
		"p50_ms":    median(r.latMS),
		"ops_per_s": throughput(r.units),
		"setup_s":   median(r.setupS),
		"heap_mb":   r.heapMB,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

// runAll runs every workload, one at a time, each in a fresh child
// process of this binary, and prints a summary table.
func runAll(seed int64, seconds float64, traced, smoke bool, workRoot, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	doc := outFile{Schema: outSchema, Seed: seed, Seconds: seconds, Trace: traced, Host: host(workRoot),
		Results: map[string]result{}}
	incorrect := false
	for _, w := range workloads {
		args := []string{"-work", workRoot, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
		if traced {
			args[len(args)-1] = "1"
		}
		if smoke {
			args = append(args, "-smoke")
		}
		res, err := runChild(self, args, w.name)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		doc.Results[w.name] = res
		incorrect = incorrect || !res.Correct
	}
	printSummary(os.Stdout, doc)
	if outPath != "" {
		if err := writeJSONFile(outPath, doc); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// runChild runs one workload in a child process, echoing its output with
// the workload name as prefix, and parses its result line. A child that
// printed a result but exited 1 failed a correctness check; its result
// is kept.
func runChild(self string, args []string, name string) (result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Printf("[%s] %s\n", name, last)
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	if scanErr != nil {
		return result{}, scanErr
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		if waitErr != nil {
			return result{}, waitErr
		}
		return result{}, fmt.Errorf("no result line in the output")
	}
	return res, nil
}

// printSummary prints each workload's ops, failures and metrics; a
// traced summary leaves out the layers a workload never entered.
func printSummary(w io.Writer, doc outFile) {
	defs := endToEnd
	if doc.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "seed %d, %g s per workload, trace %v\n", doc.Seed, doc.Seconds, doc.Trace)
	for _, wl := range workloads {
		res, ok := doc.Results[wl.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-13s ops %d failed %d correct %v\n", wl.name, res.Attempted, res.Failed, res.Correct)
		for _, m := range defs {
			v := res.Metrics[m.name]
			if doc.Trace && v.Value == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.name, v.Value, v.Unit)
		}
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
