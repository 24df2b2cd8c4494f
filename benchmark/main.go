// Command benchmark is the repository's one benchmark: four named workloads,
// six end-to-end metrics and a per-layer table from a traced run, every
// result verified. It measures from outside — real hypersolved processes
// over HTTP, the public facade in-process, /proc, and the spans and counters
// the daemons already serve — and adds no instrumentation to the program.
//
//	benchmark/run.sh                                  # all workloads, timed + traced, report + traces
//	benchmark/run.sh -aa                              # the suite twice, compared against BENCHMARK.json's bounds
//	benchmark/run.sh --workload lib-uf50 --seed 3 --seconds 10 --trace 0
//
// The last form is the contract BENCHMARK.json names: one run of one
// workload, ending in one JSON line. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are what every run of one invocation shares.
type options struct {
	root        string // the repository checkout
	bin         string // the built hypersolved
	tmpRoot     string
	traceDir    string
	seed        int64
	setups      int
	storeCycles int
	buildS      float64
	golden      map[string]string
	spec        benchSpec
}

// benchSpec is the part of BENCHMARK.json the harness reads: names, units
// and bounds live there and nowhere else.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runReport is one measured window of one workload.
type runReport struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Jobs      int                `json:"jobs"`
	WindowS   float64            `json:"window_s"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: the whole suite)")
		seed     = flag.Int64("seed", 1, "inputs are generated from this seed; the program sees only the generated inputs")
		seconds  = flag.Float64("seconds", 0, "measured window per run (default: 30 timed, 10 traced)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		aa       = flag.Bool("aa", false, "run the timed suite twice and fail if any end-to-end metric differs by more than its bound")
		smoke    = flag.Bool("smoke", false, "a quick pass for tests: 1 s windows, one set-up, short isolation cases")
		out      = flag.String("o", "", "suite report path (default .bench_build/report.json)")
		traceDir = flag.String("trace-dir", "", "where traced runs write <workload>.trace.json (default .bench_build/traces)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	buildDir := filepath.Join(root, ".bench_build")
	opt := options{
		root: root, seed: *seed, setups: 3, storeCycles: 4096,
		bin:      filepath.Join(buildDir, "bin", "hypersolved"),
		tmpRoot:  filepath.Join(buildDir, "tmp"),
		traceDir: *traceDir,
	}
	if opt.traceDir == "" {
		opt.traceDir = filepath.Join(buildDir, "traces")
	}
	timedS, tracedS := 30.0, 10.0
	if *seconds > 0 {
		timedS, tracedS = *seconds, *seconds
	}
	if *smoke {
		opt.setups, opt.storeCycles, timedS, tracedS = 1, 256, 1, 1
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &opt.spec); err != nil {
		return err
	}
	if err := readJSON(filepath.Join(root, "benchmark", "golden.json"), &opt.golden); err != nil {
		return err
	}
	if err := os.MkdirAll(opt.tmpRoot, 0o755); err != nil {
		return err
	}
	if opt.buildS, err = buildDaemon(opt); err != nil {
		return err
	}
	// A signal must not leave daemons behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintln(os.Stderr, "benchmark: interrupted by", s)
		stopAllFleets()
		os.Exit(1)
	}()

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		return contractRun(opt, w, timedS, *trace == 1)
	}

	if *aa {
		return aaRun(opt, timedS)
	}
	reports, err := suite(opt, timedS, tracedS, true)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = filepath.Join(buildDir, "report.json")
	}
	if err := writeReport(path, opt, reports); err != nil {
		return err
	}
	fmt.Printf("\nreport: %s\ntraces: %s\n", path, opt.traceDir)
	return failures(reports)
}

// findRoot walks up from the working directory to the checkout that holds
// the hypersolve module, so the benchmark runs from the root (run.sh) or
// from its own directory (go run).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module hypersolve\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a hypersolve checkout: no go.mod with `module hypersolve` above the working directory")
		}
		dir = parent
	}
}

func readJSON(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// buildDaemon builds the real hypersolved from the checkout's source into
// the build directory and returns the time all building took, run.sh's build
// of the harness included.
func buildDaemon(opt options) (float64, error) {
	harness, _ := strconv.ParseFloat(os.Getenv("BENCH_HARNESS_BUILD_S"), 64) // unset under plain `go run`: 0
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", opt.bin, "./cmd/hypersolved")
	cmd.Dir = opt.root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building hypersolved: %w\n%s", err, outp)
	}
	return harness + time.Since(t0).Seconds(), nil
}

// runOnce sets a workload up (several times for a timed run, reporting the
// median), measures one window and tears everything down.
func runOnce(opt options, w workload, seconds float64, traced bool) (runReport, error) {
	setups := opt.setups
	if traced {
		setups = 1 // set-up time is an end-to-end metric; a traced run does not report it
	}
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, opt.seed, opt.bin, opt.tmpRoot); err != nil {
			return runReport{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()

	rep := runReport{Workload: w.name, Traced: traced}
	var t tally
	var r windowResult
	if traced {
		var err error
		if rep.Metrics, t, r, err = tracedRun(e, seconds, opt); err != nil {
			return runReport{}, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		rep.Metrics["harness.build_s"] = opt.buildS
	} else {
		e.resetPeakRSS()
		cpu0, err := e.sutCPUMs()
		if err != nil {
			return runReport{}, err
		}
		r = e.window(time.Now().Add(time.Duration(seconds*float64(time.Second))), 0, nil)
		var cpu, rss float64
		if e.ctx().Err() == nil { // a fleet that lost a process has no /proc to read; its jobs have failed
			cpu1, err := e.sutCPUMs()
			if err != nil {
				return runReport{}, err
			}
			if rss, err = e.sutPeakRSSMB(); err != nil {
				return runReport{}, err
			}
			cpu = cpu1 - cpu0
		}
		t = judge(e, r, opt.golden)
		rep.Metrics = endToEnd(t, r, cpu, rss)
		rep.Metrics["setup_s"] = median(setupS)
	}
	rep.Attempted, rep.Failed, rep.Errors = t.attempted, t.failed, t.errors
	rep.Jobs, rep.WindowS, rep.Digest = len(t.verified), r.seconds(), t.digest
	return rep, nil
}

// contractRun is one driver run: one workload, one window, and as the last
// line of standard output one JSON object. A wrong answer also fails the
// process.
func contractRun(opt options, w workload, seconds float64, traced bool) error {
	rep, err := runOnce(opt, w, seconds, traced)
	if err != nil {
		return err
	}
	specs := opt.spec.EndToEnd
	if traced {
		specs = opt.spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := rep.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names %q, which this run did not measure", s.Name)
		}
		metrics[s.Name] = value{v, s.Unit}
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", e)
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.Failed == 0, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		return fmt.Errorf("%s: %d of %d jobs failed", w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// suite runs every workload: a timed run for the end-to-end metrics, then,
// if asked, a separate traced run for the per-layer table. End-to-end
// numbers never come from the traced run.
func suite(opt options, timedS, tracedS float64, traced bool) ([]runReport, error) {
	var reports []runReport
	for _, w := range workloads {
		fmt.Printf("\n== %s ==\n   %s\n", w.name, w.why)
		rep, err := runOnce(opt, w, timedS, false)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
		printMetrics(rep, opt.spec.EndToEnd)
		if !traced {
			continue
		}
		trep, err := runOnce(opt, w, tracedS, true)
		if err != nil {
			return nil, err
		}
		// The cost of tracing is the gap between the two runs.
		trep.Metrics["harness.traced_slowdown_pct"] = 100 * (1 - ratio(trep.Metrics["harness.traced_jobs_per_s"], rep.Metrics["jobs_per_s"]))
		reports = append(reports, trep)
		printMetrics(trep, append(opt.spec.PerLayer, metricSpec{Name: "harness.traced_slowdown_pct", Unit: "%"}))
	}
	return reports, nil
}

func printMetrics(rep runReport, specs []metricSpec) {
	kind := "end-to-end, tracing off"
	if rep.Traced {
		kind = "per-layer, traced run"
	}
	fmt.Printf("   -- %s: %d jobs verified in %.1f s, %d of %d failed (fail_share %.4f), digest %.12s\n",
		kind, rep.Jobs, rep.WindowS, rep.Failed, rep.Attempted, ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Digest)
	for _, s := range specs {
		if v := rep.Metrics[s.Name]; v != 0 || !rep.Traced { // a layer this workload does not exercise reads 0
			fmt.Printf("   %-38s %14.4f %s\n", s.Name, v, s.Unit)
		}
	}
	for _, e := range rep.Errors {
		fmt.Println("   FAILED:", e)
	}
}

func failures(reports []runReport) error {
	failed := 0
	for _, rep := range reports {
		failed += rep.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d jobs failed", failed)
	}
	return nil
}

// aaRun measures the same code twice and holds the benchmark to its own
// bounds: if two runs of identical code differ by more than a bound, that
// bound cannot tell a regression from noise.
func aaRun(opt options, timedS float64) error {
	var sides [2][]runReport
	for i := range sides {
		fmt.Printf("\n#### A/A side %d ####\n", i+1)
		var err error
		if sides[i], err = suite(opt, timedS, 0, false); err != nil {
			return err
		}
		if err := failures(sides[i]); err != nil {
			return err
		}
	}
	fmt.Printf("\n%-18s %-20s %14s %14s %8s %8s\n", "workload", "metric", "A", "A'", "diff", "bound")
	exceeded := 0
	for i, a := range sides[0] {
		b := sides[1][i]
		for _, s := range opt.spec.EndToEnd {
			va, vb := a.Metrics[s.Name], b.Metrics[s.Name]
			diff := ratio(max(va, vb)-min(va, vb), min(va, vb))
			mark := ""
			if diff > s.Bound {
				mark = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-18s %-20s %14.4f %14.4f %7.2f%% %7.2f%%%s\n", a.Workload, s.Name, va, vb, 100*diff, 100*s.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric/workload pairs differ by more than their bound between identical runs", exceeded)
	}
	return nil
}

// hostInfo is the hardware context a number needs to mean anything.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func host(opt options) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Seed: opt.seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = opt.root
	if outp, err := cmd.Output(); err == nil { // a source archive has no .git; the commit stays unknown
		h.Commit = strings.TrimSpace(string(outp))
	}
	return h
}

func writeReport(path string, opt options, reports []runReport) error {
	why := map[string]string{}
	for _, w := range workloads {
		why[w.name] = w.why
	}
	data, err := json.MarshalIndent(map[string]any{
		"host": host(opt), "generators": generators, "why": why, "runs": reports,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
