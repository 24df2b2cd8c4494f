package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"hypersolve"
	"hypersolve/internal/mapping"
)

// simCounts are the simulated statistics of one solve. They are a pure
// function of instance and seed: a change that moves one changed the
// simulation, not its speed.
type simCounts struct {
	Value           string
	ComputationTime int64
	Sent            int64
	Delivered       int64
	Frames          int64
	Steps           int64
	Activations     int64
}

// outcome is one attempted job.
type outcome struct {
	unit    int // index in the instance list
	start   time.Time
	latency time.Duration
	err     error // nil: the result was fetched and verified

	counts simCounts

	// Lib workloads: time per facade call, and what the mapping shim saw
	// (traced runs only).
	compile, build, run, verify, marshal time.Duration
	chooseCalls, chooseNs                int64
	imbalance                            float64

	// HTTP workloads: harness-side phases, and the daemon's own spans by
	// name in ms (traced runs only).
	id                                         string
	submitRTT, eventsWait, resultGet, traceGet time.Duration
	resultBytes                                int
	daemonMs                                   map[string]float64
}

// chooseStats accumulates one solve's mapping decisions. A machine runs on
// the goroutine that called RunContext, so no lock is needed.
type chooseStats struct {
	calls int64
	ns    int64
}

// timedAlgorithm is the timing shim at the mapping.Algorithm seam: it wraps
// whatever the registry built and times each Choose from outside.
type timedAlgorithm struct {
	mapping.Algorithm
	st *chooseStats
}

func (t timedAlgorithm) Choose(v mapping.View) int {
	t0 := time.Now()
	i := t.Algorithm.Choose(v)
	t.st.ns += int64(time.Since(t0))
	t.st.calls++
	return i
}

func timedMapper(inner hypersolve.MapperFactory, st *chooseStats) hypersolve.MapperFactory {
	return func(self hypersolve.PID, nbrs []hypersolve.PID, seed int64) mapping.Algorithm {
		return timedAlgorithm{inner(self, nbrs, seed), st}
	}
}

// resultDoc is what a lib solve marshals, shaped like the service's job
// result so both kinds of workload pay for the same encoding.
type resultDoc struct {
	OK              bool                      `json:"ok"`
	Value           string                    `json:"value"`
	ComputationTime int64                     `json:"computation_time"`
	Performance     float64                   `json:"performance"`
	Stats           hypersolve.SimulatorStats `json:"stats"`
}

// solveLib runs one instance through the facade: compile the spec strings,
// build a fresh machine, run it, verify the answer against the oracle and
// marshal the result. Latency covers all five; each is also a span when rec
// is non-nil, which is also when the mapping shim is installed.
func solveLib(ctx context.Context, c libCase, seed int64, rec *recorder, job int) (o outcome) {
	o.start = time.Now()
	fail := func(step string, err error) outcome {
		o.err = fmt.Errorf("%s: %s: %w", c.name, step, err)
		o.latency = time.Since(o.start)
		return o
	}

	topo, err := hypersolve.ParseTopology(c.topology)
	if err != nil {
		return fail("compile", err)
	}
	mapper, err := hypersolve.ParseMapper(c.mapper)
	if err != nil {
		return fail("compile", err)
	}
	task, arg := c.task()
	var shim chooseStats
	if rec != nil {
		mapper = timedMapper(mapper, &shim)
	}
	t1 := time.Now()

	cfg := hypersolve.Config{Topology: topo, Mapper: mapper, Task: task, ProcsPerNode: c.procs, Seed: seed}
	cfg.Link.LinkLatency = c.latency
	machine, err := hypersolve.NewMachine(cfg)
	if err != nil {
		return fail("machine build", err)
	}
	t2 := time.Now()

	res, err := machine.RunContext(ctx, arg)
	if err != nil {
		return fail("run", err)
	}
	t3 := time.Now()

	if !res.OK {
		return fail("verify", fmt.Errorf("root did not complete within the step budget"))
	}
	value, err := c.check(res.Value)
	if err != nil {
		return fail("verify", err)
	}
	t4 := time.Now()

	if _, err := json.Marshal(resultDoc{
		OK: res.OK, Value: value, ComputationTime: res.ComputationTime,
		Performance: res.Performance, Stats: res.Stats,
	}); err != nil {
		return fail("marshal", err)
	}
	t5 := time.Now()

	o.latency = t5.Sub(o.start)
	o.compile, o.build, o.run, o.verify, o.marshal = t1.Sub(o.start), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)
	o.chooseCalls, o.chooseNs = shim.calls, shim.ns
	o.counts = simCounts{
		Value: value, ComputationTime: res.ComputationTime,
		Sent: res.Stats.TotalSent, Delivered: res.Stats.TotalDelivered, Steps: res.Stats.Steps,
	}
	for _, n := range res.FramesPerProcess {
		o.counts.Frames += n
	}
	for _, n := range machine.Network().Cluster().ActivationsPerNode() {
		o.counts.Activations += n
	}
	var most, total int64
	for _, n := range res.ReceivedPerProcess {
		most, total = max(most, n), total+n
	}
	o.imbalance = ratio(float64(most)*float64(len(res.ReceivedPerProcess)), float64(total))

	root := rec.add(job, "job", 0, o.start, t5)
	rec.add(job, "core.compile", root, o.start, t1)
	rec.add(job, "core.machine_build", root, t1, t2)
	rec.add(job, "core.run", root, t2, t3)
	rec.add(job, "core.verify", root, t3, t4)
	rec.add(job, "core.marshal", root, t4, t5)
	return o
}

// digest is the determinism fingerprint of one pass over the instance list:
// (value, computation_time, sent, delivered, frames) per instance, in list
// order.
func digest(counts []simCounts) string {
	h := sha256.New()
	for i, c := range counts {
		fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d\n", i, c.Value, c.ComputationTime, c.Sent, c.Delivered, c.Frames)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
