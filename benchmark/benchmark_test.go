package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hypersolve/internal/sat"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// A window ends on the first whole-pass boundary at or after both the
// deadline and the minimum unit count, whichever generator asks.
func TestPassCursorEndsOnWholePass(t *testing.T) {
	t0 := time.Unix(1000, 0)
	deadline := t0.Add(10 * time.Second)
	c := newPassCursor(4, 0, deadline)
	var units, passes []int
	now := t0
	for {
		unit, pass, ok := c.take(now)
		if !ok {
			break
		}
		units, passes = append(units, unit), append(passes, pass)
		now = now.Add(1500 * time.Millisecond) // the deadline falls inside the second pass
	}
	if want := []int{0, 1, 2, 3, 0, 1, 2, 3}; !reflect.DeepEqual(units, want) {
		t.Errorf("units %v, want %v: the pass under way at the deadline must be finished", units, want)
	}
	if want := []int{0, 0, 0, 0, 1, 1, 1, 1}; !reflect.DeepEqual(passes, want) {
		t.Errorf("passes %v, want %v", passes, want)
	}
	if _, _, ok := c.take(t0); ok {
		t.Error("a closed cursor handed out another unit")
	}

	// A deadline already past still yields one whole pass; a minimum of 10
	// units rounds up to 3 passes of 4.
	for _, tc := range []struct{ minUnits, want int }{{0, 4}, {4, 4}, {10, 12}} {
		c := newPassCursor(4, tc.minUnits, time.Time{})
		n := 0
		for _, _, ok := c.take(t0); ok; _, _, ok = c.take(t0) {
			n++
		}
		if n != tc.want {
			t.Errorf("minUnits %d: %d units handed out, want %d", tc.minUnits, n, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Name: "nested", Parent: 1, Start: 10, End: 50},
		{ID: 3, Name: "leaf", Parent: 2, Start: 20, End: 30},
		{ID: 4, Name: "overlaps-2", Parent: 1, Start: 40, End: 70},  // 40..50 is covered twice
		{ID: 5, Name: "sticks-out", Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 6, Name: "inside-4", Parent: 1, Start: 45, End: 60},    // adds nothing new
		{ID: 7, Name: "other job", Start: 0, End: 5},                // no children
		{ID: 8, Name: "before", Parent: 1, Start: -10, End: 5},      // clock skew: clipped at the front
		{ID: 9, Name: "orphan", Parent: 99, Start: 0, End: 1},       // parent never recorded
		{ID: 10, Name: "backwards", Parent: 7, Start: 3, End: 2},    // negative duration counts as zero
	}
	self := selfTimes(spans)
	want := map[int]float64{
		1:  100 - (5 + 60 + 10), // [0,5] + [10,70] + [90,100]
		2:  40 - 10,
		3:  10,
		4:  30,
		5:  30,
		6:  15,
		7:  5,
		8:  15,
		9:  1,
		10: 0,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	rows := selfTimeTable(spans)
	total := 0.0
	for i, r := range rows {
		total += r.SelfMs
		if i > 0 && r.SelfMs > rows[i-1].SelfMs {
			t.Errorf("table not sorted by self time: %+v", rows)
		}
	}
	sum := 0.0
	for _, v := range want {
		sum += v
	}
	if total != sum {
		t.Errorf("table self time sums to %v, want %v", total, sum)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var rec *recorder
	if id := rec.add(1, "x", 0, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil recorder returned id %d", id)
	}
	on := newRecorder()
	a := on.add(1, "job", 0, on.epoch, on.epoch.Add(time.Millisecond))
	b := on.add(1, "child", a, on.epoch, on.epoch.Add(time.Millisecond))
	if a != 1 || b != 2 || on.spans[1].Parent != 1 || on.spans[0].End != 1 {
		t.Errorf("recorded %+v", on.spans)
	}
}

const sampleScrape = `# HELP hypersolve_store_records_total Records appended.
# TYPE hypersolve_store_records_total counter
hypersolve_store_records_total{backend="http://127.0.0.1:1",role="active",shard="1"} 10
hypersolve_store_records_total{backend="http://127.0.0.1:2",role="standby",shard="1"} 9
hypersolve_store_records_total{backend="http://127.0.0.1:3",role="active",shard="2"} 5
hypersolve_cluster_shards 2
hypersolve_store_fsync_seconds_sum{role="active",shard="1"} 0.005166988
hypersolve_build_info{commit="a\"b\\c",version="dev, with space } and brace"} 1
hypersolve_sim_steps_per_sec 4.12e+05
`

func TestParseMetricsAndDelta(t *testing.T) {
	before, err := parseMetrics(sampleScrape)
	if err != nil {
		t.Fatal(err)
	}
	if got := before.sum("hypersolve_store_records_total"); got != 24 {
		t.Errorf("sum of all = %v, want 24", got)
	}
	if got := before.sum("hypersolve_store_records_total", "role=active"); got != 15 {
		t.Errorf("sum of active = %v, want 15", got)
	}
	if got := before.sum("hypersolve_store_records_total", "role=active", "shard=2"); got != 5 {
		t.Errorf("sum of active shard 2 = %v, want 5", got)
	}
	if got := before.sum("hypersolve_cluster_shards"); got != 2 {
		t.Errorf("unlabelled sample = %v, want 2", got)
	}
	if got := before.sum("hypersolve_sim_steps_per_sec"); got != 412000 {
		t.Errorf("exponent form = %v, want 412000", got)
	}
	if got := before.sum("no_such_family"); got != 0 {
		t.Errorf("absent family = %v, want 0", got)
	}
	for _, s := range before {
		if s.name == "hypersolve_build_info" {
			if s.labels["commit"] != `a"b\c` || s.labels["version"] != "dev, with space } and brace" {
				t.Errorf("escaped labels parsed as %q", s.labels)
			}
		}
	}
	after, err := parseMetrics(strings.ReplaceAll(sampleScrape, `shard="2"} 5`, `shard="2"} 12`))
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(before, after, "hypersolve_store_records_total", "role=active"); got != 7 {
		t.Errorf("delta = %v, want 7", got)
	}
	for _, bad := range []string{"name_without_value", `x{a="unterminated} 1`, "x{a=1} 1", "x 1.2.3"} {
		if _, err := parseMetrics(bad); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (hyper) solved (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 3000 {
		t.Errorf("parseProcStat = %v, %v; want 3000 ms (250+50 ticks at 100 Hz)", cpu, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 50 0"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted malformed input", bad)
		}
	}
	status := "Name:\thypersolved\nVmPeak:\t 1234567 kB\nVmHWM:\t   80896 kB\nVmRSS:\t   70000 kB\n"
	hwm, err := parseProcStatusHWM(status)
	if err != nil || hwm != 79 {
		t.Errorf("parseProcStatusHWM = %v, %v; want 79 MB", hwm, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseProcStatusHWM(bad); err == nil {
			t.Errorf("parseProcStatusHWM(%q) accepted malformed input", bad)
		}
	}
	// And against the live kernel: this very process.
	if cpu, err := procCPUMs(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPUMs(self) = %v, %v", cpu, err)
	}
	if mb, err := procPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("procPeakRSSMB(self) = %v, %v", mb, err)
	}
}

// The benchmark's DIMACS writer must say exactly what the daemon's parser
// hears.
func TestDIMACSRoundTrip(t *testing.T) {
	cases, err := uf20Cases(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases[:32] {
		got, err := sat.ParseDIMACS(strings.NewReader(writeDIMACS(*c.formula)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, *c.formula) {
			t.Fatalf("%s: round trip changed the formula", c.name)
		}
	}
	body, err := cases[0].jobSpec()
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	for _, knob := range []string{"engine", "portfolio"} {
		if _, set := spec[knob]; set {
			t.Errorf("job spec sets %q; the benchmark must leave it at its default", knob)
		}
	}
}

// fingerprint renders an instance list as text: what the program would see.
func fingerprint(t *testing.T, cases []libCase) string {
	t.Helper()
	var b strings.Builder
	for _, c := range cases {
		b.WriteString(c.name + " " + c.topology + " " + c.mapper + "\n")
		if c.formula != nil {
			b.WriteString(writeDIMACS(*c.formula))
		} else {
			_, arg := c.task()
			data, err := json.Marshal(arg)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
	}
	return b.String()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		if w.name == "fleet-uf20-fsync" {
			continue // the same generator as svc-uf20-mem
		}
		a, err := w.cases(5)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.cases(5)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		other, err := w.cases(6)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		fa := fingerprint(t, a)
		if fa != fingerprint(t, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if fa == fingerprint(t, other) {
			t.Errorf("%s: another seed gave the same inputs", w.name)
		}
		if len(a)%w.batch != 0 || w.warmUp <= 0 {
			t.Errorf("%s: %d instances, batch %d, warm-up %d", w.name, len(a), w.batch, w.warmUp)
		}
	}
}

// The ladder must pin both the shape and the sum of the picked sizes, and
// must terminate when the pool holds equal sizes.
func TestPickLadder(t *testing.T) {
	var pool []int64
	for i := 0; i < 128; i++ {
		switch {
		case i%3 == 0:
			pool = append(pool, 0) // satisfiable or cut short
		case i%7 == 0:
			pool = append(pool, 1000) // many equal sizes
		default:
			pool = append(pool, int64(400+(i*137)%1800))
		}
	}
	picked, err := pickLadder(pool)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	var sum, target float64
	for k, i := range picked {
		if seen[i] || pool[i] <= 0 {
			t.Fatalf("rung %d picked instance %d (size %d, seen %v)", k, i, pool[i], seen[i])
		}
		seen[i] = true
		rung := uf50Easy * math.Pow(uf50Hard/uf50Easy, float64(k)/(uf50Rungs-1))
		if math.Abs(float64(pool[i])-rung) > 0.2*rung {
			t.Errorf("rung %d (%.0f calls) got an instance of %d calls", k, rung, pool[i])
		}
		sum, target = sum+float64(pool[i]), target+rung
	}
	if math.Abs(sum-target) > 0.002*target {
		t.Errorf("picked sizes sum to %.0f, ladder to %.0f: off by more than 0.2%%", sum, target)
	}
	if _, err := pickLadder(make([]int64, 128)); err == nil {
		t.Error("a pool with nothing usable was accepted")
	}
}

// BENCHMARK.json is the contract; the code must emit exactly what it names.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		benchSpec
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: declared %+v, code has %q / %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	var perLayer []string
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	if !reflect.DeepEqual(perLayer, perLayerNames) {
		t.Errorf("per_layer names differ from perLayerNames:\n%v\n%v", perLayer, perLayerNames)
	}
	e2e := endToEnd(tally{}, windowResult{}, 0, 0)
	e2e["setup_s"] = 0
	var declared, emitted []string
	for _, m := range doc.EndToEnd {
		declared = append(declared, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for name := range e2e {
		emitted = append(emitted, name)
	}
	sort.Strings(declared)
	sort.Strings(emitted)
	if !reflect.DeepEqual(declared, emitted) {
		t.Errorf("end_to_end declares %v, endToEnd emits %v", declared, emitted)
	}
}

// The simulated statistics of the fork-join rotation are pinned: seed 1 must
// reproduce the golden digest, twice over, and another seed must not.
func TestForkJoinGoldenDigest(t *testing.T) {
	var golden map[string]string
	if err := readJSON("golden.json", &golden); err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) string {
		cases, err := forkJoinCases(seed)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]simCounts, len(cases))
		for i, c := range cases {
			o := solveLib(context.Background(), c, seed, nil, i)
			if o.err != nil {
				t.Fatal(o.err)
			}
			counts[i] = o.counts
		}
		return digest(counts)
	}
	want := golden[goldenKey("lib-forkjoin", 1)]
	if got := run(1); got != want || run(1) != want {
		t.Errorf("seed 1 digest %s, golden %s", got, want)
	}
	if run(2) == want {
		t.Error("seed 2 reproduced seed 1's digest")
	}
	if _, ok := golden[goldenKey("lib-uf50", 1)]; !ok {
		t.Error("golden.json has no digest for lib-uf50 seed 1")
	}
}

// TestSmoke runs the whole suite through the real entry point: builds,
// daemons, every workload timed and traced, report and trace files.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemons; skipped under -short")
	}
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	cmd := exec.Command("bash", "run.sh", "-smoke", "-o", report, "-trace-dir", dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("run.sh -smoke: %v\n%s", err, out)
	}
	var doc struct {
		Host hostInfo
		Runs []runReport
	}
	if err := readJSON(report, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Host.NProc < 1 || doc.Host.GoVersion == "" || doc.Host.Seed != 1 {
		t.Errorf("host context %+v", doc.Host)
	}
	if len(doc.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs reported, want a timed and a traced run of each of %d workloads", len(doc.Runs), len(workloads))
	}
	for _, r := range doc.Runs {
		if r.Failed != 0 || r.Jobs == 0 || r.Attempted != r.Jobs {
			t.Errorf("%s (traced %v): %d jobs, %d attempted, %d failed: %v", r.Workload, r.Traced, r.Jobs, r.Attempted, r.Failed, r.Errors)
		}
		if !r.Traced {
			for _, name := range []string{"setup_s", "jobs_per_s", "job_latency_p50_ms", "cpu_ms_per_job", "peak_rss_mb"} {
				if r.Metrics[name] <= 0 {
					t.Errorf("%s: %s = %v", r.Workload, name, r.Metrics[name])
				}
			}
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, r.Workload+".trace.json")); err != nil {
			t.Errorf("%s: no trace file: %v", r.Workload, err)
		}
		for _, name := range perLayerNames {
			if _, ok := r.Metrics[name]; !ok {
				t.Errorf("%s: traced run did not report %s", r.Workload, name)
			}
		}
	}
}
