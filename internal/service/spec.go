// Package service turns the one-shot solver library into a long-lived,
// multi-tenant solve backend: a typed JobSpec describes a problem and the
// machine to run it on, a pluggable store (internal/store: in-memory or
// durable WAL-journaled) tracks jobs through the queued → running →
// done/failed/cancelled lifecycle, a bounded FIFO admission queue feeds a
// worker pool built on internal/parallel, and every running job is
// cancellable (and deadline-bounded) through the stack's context-aware
// core.RunContext. The HTTP surface in api.go exposes the service as a
// stdlib net/http JSON API, and client.go is the matching Go client used
// by cmd/hyperctl, the cluster router (internal/cluster, as its
// inter-daemon transport) and the end-to-end tests. Job identity is a
// JobID: a bare sequence number on one daemon, shard-prefixed ("s2-17")
// when fronted by a router. docs/API.md documents the wire surface.
package service

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"hypersolve/internal/apps"
	"hypersolve/internal/core"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/recursion"
	"hypersolve/internal/sat"
	"hypersolve/internal/simulator"
)

// JobSpec is the wire-format description of one solve job: which problem to
// solve (Kind plus its parameters) and which machine to solve it on
// (topology, mapper, layer-2 and link-model knobs). The zero value of every
// optional field selects the documented default, so a minimal spec is just
// {"kind": "sat", "cnf": "..."}.
type JobSpec struct {
	// Kind selects the workload: "sat" (or "dimacs"), "queens", "knapsack",
	// "sum", "fib" or "unbalanced".
	Kind string `json:"kind"`

	// N is the task parameter: sum/fib argument, queens board size,
	// knapsack item count, unbalanced tree depth, or — for kind "sat"
	// without CNF — the variable count of a generated uniform random 3-SAT
	// instance at the uf ratio (default 20).
	N int `json:"n,omitempty"`
	// CNF is the DIMACS text of the formula to solve (kind "sat"/"dimacs"
	// only); when set it overrides N.
	CNF string `json:"cnf,omitempty"`
	// Heuristic is the SAT branching heuristic: "first" (default), "freq",
	// "jw" or "dlis".
	Heuristic string `json:"heuristic,omitempty"`
	// Cutoff is the sequential grain size of the queens and knapsack
	// solvers (default 3).
	Cutoff int `json:"cutoff,omitempty"`

	// Topology is the layer-1 interconnect spec, e.g. "torus:14x14",
	// "hypercube:7", "full:256" (default "torus:14x14").
	Topology string `json:"topology,omitempty"`
	// Mapper is the layer-3 mapping spec: "rr" (default), "rr-stagger",
	// "lbn", "random", "weighted[:alpha]" or "ideal". Mutually exclusive
	// with Portfolio.
	Mapper string `json:"mapper,omitempty"`
	// Portfolio races the same compiled spec under several mapping
	// strategies concurrently, one attempt per entry. The winner is the
	// successful attempt with the fewest simulated steps, a tie going to the
	// entry listed first, so the result depends only on spec+seed; the
	// losers are cancelled. Entries are mapper specs (duplicates rejected);
	// the single entry "auto" stands for rr, lbn, weighted in that order.
	// Mutually exclusive with Mapper.
	Portfolio []string `json:"portfolio,omitempty"`
	// ProcsPerNode is the layer-2 oversubscription factor (default 1).
	ProcsPerNode int `json:"procs_per_node,omitempty"`

	// Seed drives all randomness in the stack; identical spec+seed pairs
	// produce bit-identical results whether run serially or through the
	// service.
	Seed int64 `json:"seed,omitempty"`
	// MaxSteps bounds the simulation (default the simulator's 4M).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// TimeoutMs is the wall-clock deadline enforced once the job starts
	// running; 0 means no deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`

	// RecordSeries includes the per-step interconnect activity trace in the
	// result payload; Heatmap includes the node-activity heatmap.
	RecordSeries bool `json:"record_series,omitempty"`
	// Heatmap folds per-process received counts onto the topology and
	// includes the grid in the result payload.
	Heatmap bool `json:"heatmap,omitempty"`

	// Link carries the optional layer-1 link-model extensions.
	Link LinkSpec `json:"link,omitempty"`
}

// LinkSpec is the JSON shape of the layer-1 link-model extensions (see
// simulator.LinkConfig for semantics).
type LinkSpec struct {
	// QueueModel is "node" (default) or "link".
	QueueModel      string  `json:"queue_model,omitempty"`
	LinkLatency     int64   `json:"link_latency,omitempty"`
	DeliverPerStep  int     `json:"deliver_per_step,omitempty"`
	QueueCap        int     `json:"queue_cap,omitempty"`
	LossRate        float64 `json:"loss_rate,omitempty"`
	Reliable        bool    `json:"reliable,omitempty"`
	RetransmitAfter int64   `json:"retransmit_after,omitempty"`
}

// Deadline returns the spec's wall-clock budget as a duration (zero when
// unset).
func (s JobSpec) Deadline() time.Duration { return time.Duration(s.TimeoutMs) * time.Millisecond }

// Compiled is everything a validated spec compiles to: the machine config,
// the root argument and what the post-run hooks need to turn a raw
// core.Result into the job's JSON payload.
type Compiled struct {
	// Config runs the job under the spec's Mapper (or its default); for a
	// portfolio, under its first entry ("auto": rr).
	Config core.Config
	// Arg is the root task's argument.
	Arg recursion.Value
	// Formula is set for SAT jobs and drives result verification.
	Formula *sat.Formula
	// strategies lists the mapping strategies the job can run under, in
	// spec order: the one mapper of a solo job, or the portfolio's entries
	// ("auto" expanded), which is also the race's tie-break order.
	// mappers holds each one's factory, for execute to install per attempt.
	strategies []string
	portfolio  bool
	mappers    map[string]mapping.Factory
}

// Admission bounds: what a spec may ask Compile to build. Like the
// simulator's own link limit they are constants, not settings — they keep one
// request from exhausting the daemon inside the submit handler, where no
// deadline or MaxSteps applies yet.
const (
	// maxProcesses bounds nodes x procs_per_node.
	maxProcesses = 1 << 20
	// maxVirtualLinks bounds the neighbour lists layer 2 precomputes: every
	// process is adjacent to every slot of its node and of the node's
	// neighbours.
	maxVirtualLinks = 1 << 23
	// maxGeneratedN bounds the size of a generated sat or knapsack instance.
	maxGeneratedN = 10_000
	// maxQueensN is the largest board whose columns fit QueensState's int8.
	maxQueensN = 127
)

// checkMachineSize rejects a topology spec too large to build, before
// mesh.Parse builds it.
func checkMachineSize(topoSpec string, procsPerNode int) error {
	nodes, links, err := mesh.Extent(topoSpec)
	if err != nil {
		return fmt.Errorf("service: topology: %w", err)
	}
	procs := int64(max(procsPerNode, 1))
	if procs > maxProcesses || nodes > maxProcesses/procs {
		return fmt.Errorf("service: topology %s with %d procs per node exceeds %d processes", topoSpec, procs, maxProcesses)
	}
	if links+nodes > maxVirtualLinks/(procs*procs) {
		return fmt.Errorf("service: topology %s with %d procs per node exceeds %d process-level links", topoSpec, procs, maxVirtualLinks)
	}
	return nil
}

// Compile turns the spec into a runnable machine configuration. It is the
// single validation point and the single place a workload name becomes a
// task: the service calls it once at admission, so malformed specs are
// rejected synchronously and workers run what was compiled; cmd/hypersim
// and cmd/satsolve build their machines through it too.
func (s JobSpec) Compile() (Compiled, error) {
	var out Compiled

	topoSpec := s.Topology
	if topoSpec == "" {
		topoSpec = "torus:14x14"
	}
	if err := checkMachineSize(topoSpec, s.ProcsPerNode); err != nil {
		return out, err
	}
	topo, err := mesh.Parse(topoSpec)
	if err != nil {
		return out, fmt.Errorf("service: topology: %w", err)
	}
	what := "mapper"
	out.strategies = []string{s.Mapper}
	if s.Mapper == "" {
		out.strategies[0] = "rr"
	}
	if out.portfolio = len(s.Portfolio) > 0; out.portfolio {
		if s.Mapper != "" {
			return out, fmt.Errorf("service: portfolio and mapper are mutually exclusive")
		}
		what = "portfolio"
		out.strategies = append([]string(nil), s.Portfolio...)
		if slices.Contains(out.strategies, "auto") {
			if len(out.strategies) != 1 {
				return out, fmt.Errorf(`service: portfolio "auto" must be the only entry`)
			}
			out.strategies = []string{"rr", "lbn", "weighted"}
		}
	}
	out.mappers = make(map[string]mapping.Factory, len(out.strategies))
	for _, strat := range out.strategies {
		if out.mappers[strat] != nil {
			return out, fmt.Errorf("service: duplicate portfolio strategy %q", strat)
		}
		if out.mappers[strat], err = mapping.Registry(strat); err != nil {
			return out, fmt.Errorf("service: %s: %w", what, err)
		}
	}

	var task recursion.Task
	var arg recursion.Value
	switch strings.ToLower(s.Kind) {
	case "sat", "dimacs":
		var formula sat.Formula
		if s.CNF != "" {
			formula, err = sat.ParseDIMACS(strings.NewReader(s.CNF))
			if err != nil {
				return out, fmt.Errorf("service: %w", err)
			}
		} else {
			n := s.N
			if n <= 0 {
				n = 20
			}
			if n > maxGeneratedN {
				return out, fmt.Errorf("service: kind %q generates at most n = %d variables", s.Kind, maxGeneratedN)
			}
			formula = sat.Random3SAT(rand.New(rand.NewSource(s.Seed)), n, int(float64(n)*4.36))
		}
		h, err := sat.ParseHeuristic(heuristicOrDefault(s.Heuristic))
		if err != nil {
			return out, fmt.Errorf("service: %w", err)
		}
		out.Formula = &formula
		task, arg = sat.Task(h), sat.NewProblem(formula)
	case "queens":
		n := s.N
		if n <= 0 || n > maxQueensN {
			return out, fmt.Errorf("service: kind %q requires 0 < n <= %d", s.Kind, maxQueensN)
		}
		task, arg = apps.QueensTask(cutoffOrDefault(s.Cutoff)), apps.QueensState{N: n}
	case "knapsack":
		n := s.N
		if n <= 0 || n > maxGeneratedN {
			return out, fmt.Errorf("service: kind %q requires 0 < n <= %d", s.Kind, maxGeneratedN)
		}
		rng := rand.New(rand.NewSource(s.Seed))
		items := make([]apps.Item, n)
		capacity := 0
		for i := range items {
			items[i] = apps.Item{Weight: 1 + rng.Intn(20), Value: 1 + rng.Intn(40)}
			capacity += items[i].Weight
		}
		capacity /= 2
		task, arg = apps.KnapsackTask(cutoffOrDefault(s.Cutoff)), apps.NewKnapsack(items, capacity)
	case "sum":
		task, arg = apps.SumTask(), s.N
	case "fib":
		task, arg = apps.FibTask(), s.N
	case "unbalanced":
		task, arg = apps.UnbalancedTask(), s.N
	default:
		return out, fmt.Errorf("service: unknown kind %q (want sat|dimacs|queens|knapsack|sum|fib|unbalanced)", s.Kind)
	}

	out.Config = core.Config{
		Topology:     topo,
		Mapper:       out.mappers[out.strategies[0]],
		Task:         task,
		ProcsPerNode: s.ProcsPerNode,
		Seed:         s.Seed,
		MaxSteps:     s.MaxSteps,
		RecordSeries: s.RecordSeries,
	}
	if out.Config.Link, err = s.Link.linkConfig(); err != nil {
		return out, err
	}
	out.Arg = arg
	return out, nil
}

func (l LinkSpec) linkConfig() (simulator.LinkConfig, error) {
	var sim simulator.LinkConfig
	switch strings.ToLower(l.QueueModel) {
	case "", "node":
		sim.QueueModel = simulator.NodeQueues
	case "link":
		sim.QueueModel = simulator.LinkQueues
	default:
		return sim, fmt.Errorf("service: unknown queue model %q (want node|link)", l.QueueModel)
	}
	sim.LinkLatency = l.LinkLatency
	sim.DeliverPerStep = l.DeliverPerStep
	sim.QueueCap = l.QueueCap
	sim.LossRate = l.LossRate
	sim.Reliable = l.Reliable
	sim.RetransmitAfter = l.RetransmitAfter
	return sim, nil
}

func heuristicOrDefault(h string) string {
	if h == "" {
		return "first"
	}
	return h
}

func cutoffOrDefault(c int) int {
	if c <= 0 {
		return 3
	}
	return c
}
