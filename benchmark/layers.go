package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hypersolve"
	"hypersolve/internal/apps"
)

// perLayerNames is the per-layer metric set BENCHMARK.json declares; a test
// holds the two in step. Every traced run reports every one of them: a layer
// a workload does not exercise reads 0.
var perLayerNames = []string{
	"client.submit_rtt_ms_p50", "client.events_wait_ms_p50", "client.result_get_ms_p50",
	"client.job_latency_p99_ms", "client.generator_cpu_share",
	"cluster.router_cpu_ms_per_job", "cluster.router_hop_ms_p50", "cluster.shard_balance",
	"cluster.spillovers", "cluster.read_failovers", "cluster.fleet_scrape_ms_p50",
	"service.compile_ms_p50", "service.admission_ms_p50", "service.queue_ms_p50", "service.run_ms_p50",
	"service.unattributed_ms_p50", "service.shard_cpu_ms_per_job", "service.worker_busy_share",
	"service.rejected_429", "service.result_bytes_p50",
	"store.journal_ms_p50", "store.records_per_job", "store.bytes_per_job", "store.fsync_ms_mean",
	"store.compactions", "store.compaction_ms_mean",
	"store.memory_cycle_us_p50", "store.file_cycle_us_p50", "store.file_fsync_cycle_us_p50",
	"store.get_us_p50", "store.list_ms_p50", "store.reopen_replay_ms",
	"replication.lag_records_max", "replication.catchup_ms", "replication.standby_cpu_ms_per_job",
	"core.compile_ms_p50", "core.machine_build_ms_p50", "core.run_ms_p50", "core.verify_ms_p50",
	"core.marshal_ms_p50", "core.allocs_per_solve", "core.kb_per_solve",
	"simulator.steps_per_solve", "simulator.delivered_per_solve", "simulator.run_ns_per_delivery",
	"simulator.traversal_ns_per_delivery",
	"sched.activations_per_solve",
	"mapping.choose_calls_per_solve", "mapping.choose_ns_p50", "mapping.node_imbalance",
	"mesh.parse_us_p50",
	"recursion.frames_per_solve", "recursion.run_ns_per_frame",
	"apps.fib-dense_ms_p50", "apps.fib-latency_ms_p50", "apps.queens_ms_p50", "apps.knapsack_ms_p50",
	"sat.seq_solve_ms_p50", "sat.distribution_overhead_x",
	"tracelog.trace_get_ms_p50", "harness.traced_jobs_per_s", "harness.build_s",
}

// column extracts one float per verified outcome.
func column(outs []outcome, f func(outcome) float64) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = f(o)
	}
	return xs
}

func p50ms(outs []outcome, f func(outcome) time.Duration) float64 {
	return percentile(column(outs, func(o outcome) float64 { return ms(f(o)) }), 50)
}

// sampler polls, once a second during a traced fleet window, what an
// operator's dashboard would: the router's merged /metrics (timed: that is
// the fleet scrape) and the standby's replication lag.
type sampler struct {
	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
	scrapeMs []float64
	maxLag   float64
	// journal keeps the scrape with the most live journal records, for the
	// mean record size: the journal-bytes gauge resets at every compaction.
	journal scrape
}

func startSampler(f *fleet) *sampler {
	s := &sampler{stop: make(chan struct{})}
	router, standby := f.byRole("router")[0], f.byRole("standby")[0]
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			t0 := time.Now()
			if sc, err := scrapeMetrics(f.ctx, router.url); err == nil {
				s.scrapeMs = append(s.scrapeMs, ms(time.Since(t0)))
				if sc.sum("hypersolve_store_journal_records", "role=active") >=
					s.journal.sum("hypersolve_store_journal_records", "role=active") {
					s.journal = sc
				}
			}
			if st, err := replicationStatus(f.ctx, standby.url); err == nil {
				s.maxLag = max(s.maxLag, float64(st.Lag))
			}
			select {
			case <-s.stop:
				return
			case <-f.ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it; its fields are safe to read
// afterwards. It may be called more than once.
func (s *sampler) finish() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.done.Wait()
}

// sutRoles are the role prefixes of a fleet's processes.
var sutRoles = []string{"router", "shard", "standby", "daemon"}

// cpuByRole reads cumulative CPU in ms: the harness's own, and per role for
// every process of a fleet.
func cpuByRole(f *fleet) (map[string]float64, error) {
	cpu := map[string]float64{}
	var err error
	if cpu["harness"], err = procCPUMs(os.Getpid()); err != nil {
		return nil, err
	}
	if f == nil {
		return cpu, nil
	}
	for _, role := range sutRoles {
		if cpu[role], err = cpuMs(f.byRole(role)); err != nil {
			return nil, err
		}
	}
	return cpu, nil
}

// tracedRun measures one window with harness spans on and derives every
// per-layer metric from outside the program: harness spans, /proc, and the
// spans and counters the daemons already serve.
func tracedRun(e *env, seconds float64, opt options) (map[string]float64, tally, windowResult, error) {
	m := make(map[string]float64, len(perLayerNames))
	for _, name := range perLayerNames {
		m[name] = 0
	}
	rec := newRecorder()
	f := e.fleet

	var before scrape
	var smp *sampler
	var err error
	if f != nil {
		if before, err = scrapeMetrics(f.ctx, f.entry); err != nil {
			return nil, tally{}, windowResult{}, err
		}
		if e.w.sharded {
			smp = startSampler(f)
			defer smp.finish()
		}
	}
	cpu0, err := cpuByRole(f)
	if err != nil {
		return nil, tally{}, windowResult{}, err
	}

	r := e.window(time.Now().Add(time.Duration(seconds*float64(time.Second))), 0, rec)

	t := judge(e, r, opt.golden)
	if t.failed > 0 {
		// Layer numbers would describe a broken system — and if a process
		// died there is no /proc left to read.
		return m, t, r, nil
	}
	cpu, err := cpuByRole(f)
	if err != nil {
		return nil, t, r, err
	}
	for role := range cpu {
		cpu[role] -= cpu0[role]
	}
	v := t.verified
	jobs := float64(len(v))
	m["client.job_latency_p99_ms"] = percentile(column(v, func(o outcome) float64 { return ms(o.latency) }), 99)
	m["harness.traced_jobs_per_s"] = ratio(jobs, r.seconds())

	var runMs float64 // the solve itself, summed over jobs, as each kind of workload sees it
	if f != nil {
		if runMs, err = httpLayers(e, m, opt, smp, before, cpu, v, r); err != nil {
			return nil, t, r, err
		}
	} else if runMs, err = libLayers(e, m, v); err != nil {
		return nil, t, r, err
	}

	// Simulated counts: means over the first pass, so they repeat exactly.
	var steps, delivered, frames, activations float64
	for _, c := range t.firstPass {
		steps += float64(c.Steps)
		delivered += float64(c.Delivered)
		frames += float64(c.Frames)
		activations += float64(c.Activations)
	}
	n := float64(len(t.firstPass))
	m["simulator.steps_per_solve"] = steps / n
	m["simulator.delivered_per_solve"] = delivered / n
	m["recursion.frames_per_solve"] = frames / n
	m["sched.activations_per_solve"] = activations / n
	var allDelivered float64
	for _, o := range v {
		allDelivered += float64(o.counts.Delivered)
	}
	m["simulator.run_ns_per_delivery"] = ratio(runMs*1e6, allDelivered)

	if e.cases[0].formula != nil {
		m["sat.seq_solve_ms_p50"] = seqSolveMs(e.cases)
		run := m["core.run_ms_p50"] + m["service.run_ms_p50"] // whichever this workload has
		m["sat.distribution_overhead_x"] = ratio(run, m["sat.seq_solve_ms_p50"])
	}
	if err := rec.write(opt.traceDir, e.w.name, e.seed, len(v)); err != nil {
		return nil, t, r, fmt.Errorf("writing trace: %w", err)
	}
	return m, t, r, nil
}

// httpLayers fills the client, service, tracelog — and for the fleet the
// cluster, store and replication — rows, and returns the summed run time.
// cpu is CPU used over the window, by role.
func httpLayers(e *env, m map[string]float64, opt options, smp *sampler, before scrape, cpu map[string]float64, v []outcome, r windowResult) (runMs float64, err error) {
	f := e.fleet
	jobs := float64(len(v))
	sutCPU := 0.0
	for _, role := range sutRoles {
		sutCPU += cpu[role]
	}
	m["client.generator_cpu_share"] = ratio(cpu["harness"], cpu["harness"]+sutCPU)
	m["client.submit_rtt_ms_p50"] = p50ms(v, func(o outcome) time.Duration { return o.submitRTT })
	m["client.events_wait_ms_p50"] = p50ms(v, func(o outcome) time.Duration { return o.eventsWait })
	m["client.result_get_ms_p50"] = p50ms(v, func(o outcome) time.Duration { return o.resultGet })
	m["tracelog.trace_get_ms_p50"] = p50ms(v, func(o outcome) time.Duration { return o.traceGet })
	m["service.result_bytes_p50"] = percentile(column(v, func(o outcome) float64 { return float64(o.resultBytes) }), 50)
	span := func(name string) []float64 {
		return column(v, func(o outcome) float64 { return o.daemonMs[name] })
	}
	m["service.compile_ms_p50"] = percentile(span("service.compile"), 50)
	m["service.admission_ms_p50"] = percentile(span("service.admission"), 50)
	m["service.queue_ms_p50"] = percentile(span("service.queue"), 50)
	m["service.run_ms_p50"] = percentile(span("service.run"), 50)
	m["store.journal_ms_p50"] = percentile(span("store.journal"), 50)
	m["service.unattributed_ms_p50"] = percentile(column(v, func(o outcome) float64 {
		d := o.daemonMs
		return ms(o.latency) - d["service.compile"] - d["service.admission"] - d["service.queue"] - d["service.run"]
	}), 50)
	for _, x := range span("service.run") {
		runMs += x
	}
	m["service.worker_busy_share"] = ratio(runMs, float64(f.workers)*r.seconds()*1000)
	m["service.shard_cpu_ms_per_job"] = ratio(cpu["shard"]+cpu["daemon"], jobs)

	after, err := scrapeMetrics(f.ctx, f.entry)
	if err != nil {
		return 0, err
	}
	m["service.rejected_429"] = delta(before, after, "hypersolve_jobs_rejected_total")
	if e.w.sharded {
		if err := fleetLayers(e, m, smp, before, after, cpu, v, r.end); err != nil {
			return 0, err
		}
		if err := storeIsolation(e, m, opt, v[0].id); err != nil {
			return 0, fmt.Errorf("store isolation case: %w", err)
		}
	}
	return runMs, nil
}

// libLayers fills the core, mapping, recursion, apps, mesh and layer-1
// isolation rows, and returns the summed run time.
func libLayers(e *env, m map[string]float64, v []outcome) (runMs float64, err error) {
	m["client.generator_cpu_share"] = 1 // the caller is the system: lib workloads have no separate generator
	m["core.compile_ms_p50"] = p50ms(v, func(o outcome) time.Duration { return o.compile })
	m["core.machine_build_ms_p50"] = p50ms(v, func(o outcome) time.Duration { return o.build })
	m["core.run_ms_p50"] = p50ms(v, func(o outcome) time.Duration { return o.run })
	m["core.verify_ms_p50"] = p50ms(v, func(o outcome) time.Duration { return o.verify })
	m["core.marshal_ms_p50"] = p50ms(v, func(o outcome) time.Duration { return o.marshal })
	var calls, frames float64
	byCase := make([][]float64, len(e.cases))
	for _, o := range v {
		runMs += ms(o.run)
		calls += float64(o.chooseCalls)
		frames += float64(o.counts.Frames)
		byCase[o.unit] = append(byCase[o.unit], ms(o.latency))
	}
	m["mapping.choose_ns_p50"] = percentile(column(v, func(o outcome) float64 {
		return ratio(float64(o.chooseNs), float64(o.chooseCalls))
	}), 50)
	m["mapping.choose_calls_per_solve"] = ratio(calls, float64(len(v)))
	m["mapping.node_imbalance"] = mean(column(v, func(o outcome) float64 { return o.imbalance }))
	m["recursion.run_ns_per_frame"] = ratio(runMs*1e6, frames)
	for i, c := range e.cases {
		if name := "apps." + c.name + "_ms_p50"; slices.Contains(perLayerNames, name) {
			m[name] = percentile(byCase[i], 50)
		}
	}
	m["core.allocs_per_solve"], m["core.kb_per_solve"] = allocsPerSolve(e)
	if m["simulator.traversal_ns_per_delivery"], err = traversalNsPerDelivery(); err != nil {
		return 0, err
	}
	if m["mesh.parse_us_p50"], err = meshParseUs(e.cases); err != nil {
		return 0, err
	}
	return runMs, nil
}

// fleetLayers fills the cluster, store and replication rows from the
// router's merged scrape, /proc and the job IDs.
func fleetLayers(e *env, m map[string]float64, smp *sampler, before, after scrape, cpu map[string]float64, v []outcome, windowEnd time.Time) error {
	f := e.fleet
	jobs := float64(len(v))
	shards, standby := f.byRole("shard"), f.byRole("standby")[0]

	// Catch-up: from the end of the window until the standby holds every
	// record its primary has written.
	err := f.poll("standby catch-up", func() bool {
		p, err1 := replicationStatus(f.ctx, shards[0].url)
		s, err2 := replicationStatus(f.ctx, standby.url)
		return err1 == nil && err2 == nil && s.LSN == p.LSN
	})
	if err != nil {
		return err
	}
	m["replication.catchup_ms"] = ms(time.Since(windowEnd))
	smp.finish()
	m["replication.lag_records_max"] = smp.maxLag
	m["replication.standby_cpu_ms_per_job"] = ratio(cpu["standby"], jobs)
	m["cluster.fleet_scrape_ms_p50"] = percentile(smp.scrapeMs, 50)
	m["cluster.router_cpu_ms_per_job"] = ratio(cpu["router"], jobs)
	m["cluster.spillovers"] = delta(before, after, "hypersolve_cluster_submit_spillovers_total")
	m["cluster.read_failovers"] = delta(before, after, "hypersolve_cluster_read_failovers_total")

	active := "role=active"
	records := delta(before, after, "hypersolve_store_records_total", active)
	m["store.records_per_job"] = ratio(records, jobs)
	m["store.bytes_per_job"] = m["store.records_per_job"] * ratio(
		smp.journal.sum("hypersolve_store_journal_bytes", active),
		smp.journal.sum("hypersolve_store_journal_records", active))
	m["store.fsync_ms_mean"] = 1000 * ratio(
		delta(before, after, "hypersolve_store_fsync_seconds_sum", active),
		delta(before, after, "hypersolve_store_fsync_seconds_count", active))
	m["store.compactions"] = delta(before, after, "hypersolve_store_compactions_total", active)
	m["store.compaction_ms_mean"] = 1000 * ratio(
		delta(before, after, "hypersolve_store_compaction_seconds_sum", active),
		delta(before, after, "hypersolve_store_compaction_seconds_count", active))

	// Balance and hop cost come from the job IDs: "s2-17" is job 17 on
	// shard 2, fetched once through the router and once from the shard.
	perShard := make([]float64, len(shards))
	var viaRouter, direct []float64
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	const hopSamples = 64
	for i, o := range v {
		shardStr, seq, ok := strings.Cut(strings.TrimPrefix(o.id, "s"), "-")
		shard, err := strconv.Atoi(shardStr)
		if !ok || err != nil || shard < 1 || shard > len(shards) {
			return fmt.Errorf("job id %q is not a sharded id of this fleet", o.id)
		}
		perShard[shard-1]++
		if i%max(len(v)/hopSamples, 1) != 0 {
			continue
		}
		for _, leg := range []struct {
			url string
			out *[]float64
		}{{f.entry + "/v1/jobs/" + o.id, &viaRouter}, {shards[shard-1].url + "/v1/jobs/" + seq, &direct}} {
			t0 := time.Now()
			if _, err := httpGet(f.ctx, hc, leg.url); err != nil {
				return err
			}
			*leg.out = append(*leg.out, ms(time.Since(t0)))
		}
	}
	lo, hi := perShard[0], perShard[0]
	for _, n := range perShard {
		lo, hi = min(lo, n), max(hi, n)
	}
	m["cluster.shard_balance"] = ratio(lo, hi)
	m["cluster.router_hop_ms_p50"] = percentile(viaRouter, 50) - percentile(direct, 50)
	return nil
}

// storeIsolation times the public store API alone, with a recorded uf20
// result as the payload: Submit→Start→Finish cycles on each backend, Get and
// List issued beside the writes, then a reopen that replays what was
// written. The cycle count runs the file store well past its 2×1024-record
// replication tail, where its append cost changes.
func storeIsolation(e *env, m map[string]float64, opt options, jobID string) error {
	var doc struct {
		Spec   json.RawMessage `json:"spec"`
		Result json.RawMessage `json:"result"`
	}
	if err := getJSON(e.fleet.ctx, http.DefaultClient, e.fleet.entry+"/v1/jobs/"+jobID, &doc); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(opt.tmpRoot, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cycles := func(st hypersolve.JobStore, n int, reads bool) (cycleUs, getUs, listMs []float64, err error) {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			job, err := st.Submit(doc.Spec, t0)
			if err != nil {
				return nil, nil, nil, err
			}
			if err := st.Start(job.ID, t0); err != nil {
				return nil, nil, nil, err
			}
			if _, err := st.Finish(job.ID, hypersolve.JobDone, t0, "", doc.Result); err != nil {
				return nil, nil, nil, err
			}
			t1 := time.Now()
			cycleUs = append(cycleUs, float64(t1.Sub(t0))/1e3)
			if !reads {
				continue
			}
			if i%16 == 0 {
				if _, ok := st.Get(job.ID); !ok {
					return nil, nil, nil, fmt.Errorf("job %d vanished after Finish", job.ID)
				}
				getUs = append(getUs, float64(time.Since(t1))/1e3)
			}
			if i%256 == 255 {
				t2 := time.Now()
				if got := len(st.List()); got != i+1 {
					return nil, nil, nil, fmt.Errorf("List returned %d jobs after %d cycles", got, i+1)
				}
				listMs = append(listMs, ms(time.Since(t2)))
			}
		}
		return cycleUs, getUs, listMs, nil
	}

	mem := hypersolve.NewMemoryJobStore(0)
	n := opt.storeCycles
	us, _, _, err := cycles(mem, n, false)
	if err != nil {
		return err
	}
	m["store.memory_cycle_us_p50"] = percentile(us, 50)
	if err := mem.Close(); err != nil {
		return err
	}

	fileDir := dir + "/file"
	file, err := hypersolve.OpenFileJobStore(hypersolve.FileJobStoreConfig{Dir: fileDir})
	if err != nil {
		return err
	}
	us, getUs, listMs, err := cycles(file, n, true)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["store.file_cycle_us_p50"] = percentile(us, 50)
	m["store.get_us_p50"] = percentile(getUs, 50)
	m["store.list_ms_p50"] = percentile(listMs, 50)

	t0 := time.Now()
	reopened, err := hypersolve.OpenFileJobStore(hypersolve.FileJobStoreConfig{Dir: fileDir})
	if err != nil {
		return err
	}
	m["store.reopen_replay_ms"] = ms(time.Since(t0))
	if got := len(reopened.List()); got != n {
		err = fmt.Errorf("reopened store replayed %d jobs, want %d", got, n)
	}
	if cerr := reopened.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// A quarter of the cycles with fsync on: each costs three syncs, and 1024
	// cycles (3072 records) is already past the tail.
	synced, err := hypersolve.OpenFileJobStore(hypersolve.FileJobStoreConfig{Dir: dir + "/fsync", Fsync: true})
	if err != nil {
		return err
	}
	us, _, _, err = cycles(synced, n/4, false)
	if cerr := synced.Close(); err == nil {
		err = cerr
	}
	m["store.file_fsync_cycle_us_p50"] = percentile(us, 50)
	return err
}

// allocsPerSolve runs one single-goroutine pass and reads the allocator's
// own counters around it.
func allocsPerSolve(e *env) (allocs, kb float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range e.cases {
		solveLib(context.Background(), c.libCase, e.seed, nil, 0)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(e.cases))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
}

// traversalNsPerDelivery times layer 1 alone: the paper's Listing 1 flood
// written directly against the simulator, no scheduler or mapper above it.
func traversalNsPerDelivery() (float64, error) {
	topo, err := hypersolve.ParseTopology("torus:32x32")
	if err != nil {
		return 0, err
	}
	var ns, delivered float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		_, stats, err := apps.RunTraversal(topo, 0, 1<<20)
		if err != nil {
			return 0, err
		}
		ns += float64(time.Since(t0))
		delivered += float64(stats.TotalDelivered)
	}
	return ratio(ns, delivered), nil
}

// meshParseUs times ParseTopology over the workload's topology specs.
func meshParseUs(cases []httpCase) (float64, error) {
	var us []float64
	for rep := 0; rep < 20; rep++ {
		for _, c := range cases[:min(len(cases), 4)] {
			t0 := time.Now()
			if _, err := hypersolve.ParseTopology(c.topology); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
	}
	return percentile(us, 50), nil
}

// seqSolveMs times the sequential DPLL baseline on the same instances: layer
// 5 alone, no machine under it.
func seqSolveMs(cases []httpCase) float64 {
	var xs []float64
	for _, c := range cases {
		t0 := time.Now()
		hypersolve.SolveSAT(*c.formula, hypersolve.SATOptions{Heuristic: hypersolve.HeuristicFirst})
		xs = append(xs, ms(time.Since(t0)))
	}
	return percentile(xs, 50)
}
