package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// env is a workload set up and warm: inputs generated, processes up, one
// whole pass already solved.
type env struct {
	w     workload
	seed  int64
	cases []httpCase
	fleet *fleet // nil for lib workloads
}

func (e *env) close() {
	if e.fleet != nil {
		e.fleet.stop()
	}
}

// ctx is cancelled when a daemon dies; lib workloads have nothing that can.
func (e *env) ctx() context.Context {
	if e.fleet != nil {
		return e.fleet.ctx
	}
	return context.Background()
}

// The processes whose CPU and memory count as the system under test are
// every daemon, or for lib workloads the benchmark process itself.
func (e *env) sutCPUMs() (float64, error) {
	if e.fleet != nil {
		return cpuMs(e.fleet.daemons)
	}
	return procCPUMs(os.Getpid())
}

// resetPeakRSS makes the peak cover the window alone. Daemons are born with
// each set-up, so theirs already does; the benchmark process has lived
// through set-ups (and, in a suite, through earlier workloads), so for lib
// workloads it asks the kernel to restart VmHWM from the current resident
// set. Where the kernel refuses, the peak covers the process's whole life.
func (e *env) resetPeakRSS() {
	if e.fleet == nil {
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	}
}

func (e *env) sutPeakRSSMB() (float64, error) {
	if e.fleet != nil {
		return peakRSSMB(e.fleet.daemons)
	}
	return procPeakRSSMB(os.Getpid())
}

// setUp generates the inputs from the seed, starts the processes, waits for
// them to be ready and warms up. Everything up to the first timed operation
// is set-up time.
func setUp(w workload, seed int64, bin, tmpRoot string) (*env, error) {
	cases, err := w.cases(seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	if len(cases)%w.batch != 0 {
		return nil, fmt.Errorf("%d instances do not divide into batches of %d", len(cases), w.batch)
	}
	e := &env{w: w, seed: seed, cases: make([]httpCase, len(cases))}
	for i, c := range cases {
		e.cases[i].libCase = c
		if w.http {
			if e.cases[i].body, err = c.jobSpec(); err != nil {
				return nil, err
			}
		}
	}
	if w.http {
		if e.fleet, err = startFleet(bin, tmpRoot, w.sharded); err != nil {
			return nil, fmt.Errorf("starting processes: %w", err)
		}
	}
	warm := e.window(time.Time{}, w.warmUp, nil)
	if err := warm.firstError(); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return e, nil
}

// windowResult is everything one measured window produced.
type windowResult struct {
	outcomes   []outcome
	start, end time.Time
}

func (r windowResult) seconds() float64 { return r.end.Sub(r.start).Seconds() }

func (r windowResult) firstError() error {
	for _, o := range r.outcomes {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// window runs the closed loop until the first whole-pass boundary at or
// after deadline and minJobs jobs. Each generator appends to its own slice;
// nothing is shared on the hot path but the cursor.
func (e *env) window(deadline time.Time, minJobs int, rec *recorder) windowResult {
	units := len(e.cases) / e.w.batch
	cur := newPassCursor(units, minJobs/e.w.batch, deadline)
	perGen := make([][]outcome, generators)
	ctx := e.ctx()
	res := windowResult{start: time.Now()}
	var wg sync.WaitGroup
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var client *apiClient
			if e.fleet != nil {
				client = newAPIClient(ctx, e.fleet.entry)
				defer client.close()
			}
			for ctx.Err() == nil {
				unit, pass, ok := cur.take(time.Now())
				if !ok {
					return
				}
				jobBase := (pass*units + unit) * e.w.batch
				if client != nil {
					perGen[g] = append(perGen[g], runHTTPUnit(client, e.cases, unit, e.w.batch, rec, jobBase)...)
					continue
				}
				o := solveLib(ctx, e.cases[unit].libCase, e.seed, rec, jobBase)
				o.unit = unit
				perGen[g] = append(perGen[g], o)
			}
		}()
	}
	wg.Wait()
	res.end = time.Now()
	for _, outs := range perGen {
		res.outcomes = append(res.outcomes, outs...)
	}
	if err := context.Cause(ctx); err != nil {
		// A daemon died: whatever was outstanding has already failed; record
		// why once so the report says more than "connection refused".
		res.outcomes = append(res.outcomes, outcome{err: err})
	}
	return res
}

// tally is the correctness side of a window.
type tally struct {
	attempted, failed int
	errors            []string // the first few, for the report
	verified          []outcome
	firstPass         []simCounts // per instance, from pass 0
	digest            string
}

// maxReportedErrors bounds how many failure texts a report carries.
const maxReportedErrors = 5

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errors) < maxReportedErrors {
		t.errors = append(t.errors, err.Error())
	}
}

// judge counts failures. Beyond each job's own verification it holds the
// simulator to its contract: an instance must produce the same simulated
// statistics on every pass, and for the seed the golden file was written for,
// lib workloads must reproduce its digest.
func judge(e *env, r windowResult, golden map[string]string) tally {
	t := tally{attempted: len(r.outcomes), firstPass: make([]simCounts, len(e.cases))}
	seen := make([]bool, len(e.cases))
	for _, o := range r.outcomes {
		if o.err != nil {
			t.fail(o.err)
			continue
		}
		if !seen[o.unit] {
			seen[o.unit], t.firstPass[o.unit] = true, o.counts
		} else if o.counts != t.firstPass[o.unit] {
			t.fail(fmt.Errorf("%s: simulated statistics changed between passes: %+v then %+v",
				e.cases[o.unit].name, t.firstPass[o.unit], o.counts))
			continue
		}
		t.verified = append(t.verified, o)
	}
	t.digest = digest(t.firstPass)
	if want, ok := golden[goldenKey(e.w.name, e.seed)]; ok && t.failed == 0 && want != t.digest {
		t.fail(fmt.Errorf("digest %s does not match golden %s: the simulation changed", t.digest, want))
	}
	if t.attempted == 0 {
		t.attempted = 1
		t.fail(errors.New("no job was attempted"))
	}
	return t
}

func goldenKey(workload string, seed int64) string { return fmt.Sprintf("%s/seed%d", workload, seed) }

// endToEnd computes the user-visible metrics of a timed window. A job is one
// solve whose result was fetched and verified; failures count in the tally,
// not in any rate or percentile.
func endToEnd(t tally, r windowResult, cpu, peakRSSMB float64) map[string]float64 {
	lat := make([]float64, len(t.verified))
	for i, o := range t.verified {
		lat[i] = ms(o.latency)
	}
	jobs := float64(len(t.verified))
	return map[string]float64{
		"jobs_per_s":         ratio(jobs, r.seconds()),
		"job_latency_p50_ms": percentile(lat, 50),
		"job_latency_p90_ms": percentile(lat, 90),
		"cpu_ms_per_job":     ratio(cpu, jobs),
		"peak_rss_mb":        peakRSSMB,
	}
}
