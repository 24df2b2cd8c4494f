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
	// strategies concurrently: one attempt per entry, the first terminal
	// attempt wins and the losers are cancelled. Entries are mapper specs
	// (duplicates rejected); the single entry "auto" expands to the
	// service's learned ranking over rr/lbn/weighted. Mutually exclusive
	// with Mapper.
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
// simulator.Config for semantics).
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

// buildOut is everything a validated spec compiles to: the machine config,
// the root argument, and the post-run hooks that turn a raw core.Result
// into the job's JSON payload.
type buildOut struct {
	cfg core.Config
	arg recursion.Value
	// formula is set for SAT jobs and drives result verification.
	formula *sat.Formula
	// mapper is the resolved solo mapping strategy (the spec's Mapper or
	// its default); portfolio holds the validated Portfolio entries, nil
	// for a solo job. The service resolves "auto" and the launch order at
	// admission — the compiled config is strategy-agnostic until execute
	// installs one attempt's factory.
	mapper    string
	portfolio []string
}

// Build compiles the spec into a runnable machine configuration. It is the
// single validation point: Submit calls it at admission time so malformed
// specs are rejected synchronously, and workers call it again (cheaply) when
// the job is dequeued. The mapper spec is re-parsed per build, so stateful
// factories (the idealised "ideal" mapper's machine-wide cursor) never leak
// state between jobs.
func (s JobSpec) Build() (core.Config, recursion.Value, error) {
	out, err := s.build()
	if err != nil {
		return core.Config{}, nil, err
	}
	return out.cfg, out.arg, nil
}

func (s JobSpec) build() (buildOut, error) {
	var out buildOut

	topoSpec := s.Topology
	if topoSpec == "" {
		topoSpec = "torus:14x14"
	}
	topo, err := mesh.Parse(topoSpec)
	if err != nil {
		return out, fmt.Errorf("service: topology: %w", err)
	}
	mapperSpec := s.Mapper
	if len(s.Portfolio) > 0 {
		if s.Mapper != "" {
			return out, fmt.Errorf("service: portfolio and mapper are mutually exclusive")
		}
		seen := make(map[string]bool, len(s.Portfolio))
		for _, strat := range s.Portfolio {
			if strat == "auto" {
				if len(s.Portfolio) != 1 {
					return out, fmt.Errorf(`service: portfolio "auto" must be the only entry`)
				}
				continue
			}
			if seen[strat] {
				return out, fmt.Errorf("service: duplicate portfolio strategy %q", strat)
			}
			seen[strat] = true
			if _, err := mapping.Registry(strat); err != nil {
				return out, fmt.Errorf("service: portfolio: %w", err)
			}
		}
		out.portfolio = append([]string(nil), s.Portfolio...)
		// Build's config needs a concrete factory; the service overrides it
		// per attempt, so the first concrete entry is only the solo-Build
		// fallback ("auto" jobs fall back to rr).
		mapperSpec = out.portfolio[0]
		if mapperSpec == "auto" {
			mapperSpec = "rr"
		}
	} else if mapperSpec == "" {
		mapperSpec = "rr"
	}
	if _, err := mapping.Registry(mapperSpec); err != nil {
		return out, fmt.Errorf("service: mapper: %w", err)
	}
	out.mapper = mapperSpec

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
			formula = sat.Random3SAT(rand.New(rand.NewSource(s.Seed)), n, int(float64(n)*4.36))
		}
		h, err := sat.ParseHeuristic(heuristicOrDefault(s.Heuristic))
		if err != nil {
			return out, fmt.Errorf("service: %w", err)
		}
		out.formula = &formula
		task, arg = sat.Task(h), sat.NewProblem(formula)
	case "queens":
		n := s.N
		if n <= 0 {
			return out, fmt.Errorf("service: kind %q requires n > 0", s.Kind)
		}
		task, arg = apps.QueensTask(cutoffOrDefault(s.Cutoff)), apps.QueensState{N: n}
	case "knapsack":
		n := s.N
		if n <= 0 {
			return out, fmt.Errorf("service: kind %q requires n > 0", s.Kind)
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

	cfg := core.Config{
		Topology:     topo,
		FreshMapper:  freshMapper(mapperSpec),
		Task:         task,
		ProcsPerNode: s.ProcsPerNode,
		Seed:         s.Seed,
		MaxSteps:     s.MaxSteps,
		RecordSeries: s.RecordSeries,
	}
	if cfg.Link, err = s.Link.simConfig(); err != nil {
		return out, err
	}
	out.cfg = cfg
	out.arg = arg
	return out, nil
}

func (l LinkSpec) simConfig() (simulator.Config, error) {
	var sim simulator.Config
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

// freshMapper builds a per-machine factory from an already-validated mapper
// spec, so stateful factories (the "ideal" mapper's machine-wide cursor) are
// constructed fresh for every job.
func freshMapper(spec string) func() mapping.Factory {
	return func() mapping.Factory {
		mf, err := mapping.Registry(spec)
		if err != nil {
			panic(err) // unreachable: Build validated the spec
		}
		return mf
	}
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
