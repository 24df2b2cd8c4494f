// Package cluster shards the solve service's job space across several
// hypersolved daemons behind one entry point — the paper's fleet story. A
// Router fronts N shards, each a primary daemon with its own durable store
// and (optionally) a standby replica tailing the primary's WAL:
// submissions are partitioned over a consistent-hash ring, the assigned
// shard is encoded into the job ID ("s2-17" is job 17 on shard 2) so point
// reads and cancels route directly, and listings fan out to every shard and
// merge ordered by ID. service.Client is the inter-daemon transport, so the
// router inherits its 429 retry/backoff on submissions.
//
// Shards fail independently, and the router self-heals: a transport-level
// failure marks the endpoint degraded (skipped for placement, periodically
// re-probed), point reads fail over to the shard's standby, and a primary
// that stays down past a grace period has its standby promoted in place —
// the replica store goes read-write and re-runs whatever the dead primary
// left queued. A stale primary that later rejoins is demoted (fenced and
// re-synced) rather than allowed to split-brain the shard. Membership is
// dynamic: POST /v1/cluster/backends adds, drains or removes shards at
// runtime, and the ring moves only ~1/N of future placements per change
// while existing sharded IDs keep routing by their encoded shard.
//
// GET /v1/cluster reports per-shard reachability, roles, promotions, queue
// depth, job counts and the fleet's headline gauges (queue occupancy,
// steps/sec, replication lag). GET /metrics serves the router's own
// telemetry merged with every healthy backend's scrape, each series
// relabeled with its shard/role/backend — the same fan-out/merge pattern
// as the listing path, applied to the metrics plane.
package cluster

import (
	"errors"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"

	"hypersolve/internal/telemetry"
	"hypersolve/internal/version"
)

// Sentinel errors of the routing layer; the HTTP handler maps them onto
// status codes (503, 502, 404, 409).
var (
	// ErrNoBackends means no backend accepted the call — every shard is
	// unreachable (the router's 503).
	ErrNoBackends = errors.New("cluster: no reachable backend")
	// ErrUnknownShard means the job ID names a shard this router does not
	// front (the router's 404).
	ErrUnknownShard = errors.New("cluster: no such shard")
	// ErrUnsharded means a bare sequence ID was addressed to the router; the
	// router cannot know which backend owns it.
	ErrUnsharded = errors.New("cluster: job id carries no shard (want s<shard>-<seq>)")
	// ErrNotDraining rejects removing a shard that was never drained: its
	// jobs would become unreachable mid-flight (the router's 409).
	ErrNotDraining = errors.New("cluster: shard must be drained before removal")
)

// Config shapes a Router.
type Config struct {
	// Backends are the primary daemon base URLs; Backends[i] serves shard
	// i+1 at startup (membership can change at runtime).
	Backends []string
	// Standbys pairs each shard with a replica daemon (same index as
	// Backends; "" or a missing tail entry leaves the shard unreplicated).
	// A standby serves failed-over reads immediately and is promoted to
	// primary when its primary stays down past PromoteAfter.
	Standbys []string
	// ProbeEvery is the cadence of the background health re-probe loop
	// (<= 0 selects DefaultProbeEvery). Each endpoint's probe is jittered
	// within the tick so a large fleet is not hit by a synchronized probe
	// wave. Degraded backends also recover on any successful proxied call,
	// so the loop only bounds how long an idle router takes to notice a
	// backend coming back — and how fast failover fires.
	ProbeEvery time.Duration
	// FailAfter is how many consecutive failed probes mark a primary down
	// for failover purposes (<= 0 selects DefaultFailAfter). Routing
	// degrades on the first failure either way; FailAfter only gates
	// promotion.
	FailAfter int
	// PromoteAfter is how long a primary must stay down (after FailAfter
	// probes) before its standby is promoted (<= 0 selects
	// DefaultPromoteAfter). The grace period is the router's protection
	// against promoting through a transient partition.
	PromoteAfter time.Duration
	// SubmitTimeout bounds each per-backend submission attempt, so one
	// hung backend cannot stall admission past the ring walk (<= 0
	// selects DefaultSubmitTimeout).
	SubmitTimeout time.Duration
	// Logger receives failover and membership transitions as structured
	// records; nil discards them.
	Logger *slog.Logger
}

// The defaults New applies to a zero Config field.
const (
	DefaultProbeEvery    = 2 * time.Second
	DefaultFailAfter     = 3
	DefaultPromoteAfter  = 10 * time.Second
	DefaultSubmitTimeout = 15 * time.Second
)

// probeTimeout bounds each per-backend health probe and metrics scrape,
// independent of any caller's context.
const probeTimeout = time.Second

// routerMetrics bundles the counters bumped on the routing paths.
type routerMetrics struct {
	promotions     *telemetry.Counter
	demotions      *telemetry.Counter
	readFailovers  *telemetry.Counter
	spillovers     *telemetry.Counter
	proxiedStreams *telemetry.Counter
	scrapeErrors   *telemetry.Counter
}

// shard is one partition of the job space: a primary endpoint, an optional
// standby, and the failover state between them.
type shard struct {
	id int

	mu      sync.Mutex
	primary *endpoint // current primary role
	standby *endpoint // nil when the shard is unreplicated
	// activeStandby routes reads and writes to the standby: set at
	// promotion, cleared when the healed old primary is demoted and the
	// roles swap.
	activeStandby bool
	// promoted records that a failover has happened on this shard (sticky,
	// for the cluster report).
	promoted bool
	// draining excludes the shard from new placements; reads keep routing.
	draining bool
}

// active returns the endpoint serving the shard right now.
func (s *shard) active() *endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.activeStandby && s.standby != nil {
		return s.standby
	}
	return s.primary
}

// alternate returns the shard's other endpoint (nil when unreplicated) —
// the failover target for point reads.
func (s *shard) alternate() *endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.standby == nil {
		return nil
	}
	if s.activeStandby {
		return s.primary
	}
	return s.standby
}

func (s *shard) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Router fronts a fleet of hypersolved daemons as one solve service. All
// methods are safe for concurrent use. Close stops the re-probe loop.
type Router struct {
	cfg Config

	mu     sync.RWMutex
	shards map[int]*shard
	ring   *ring
	nextID int // next shard ID to assign

	stop    chan struct{}
	stopped sync.Once
	done    chan struct{}

	// reg holds the router's own metrics (failovers, promotions,
	// spillovers, proxied streams, per-backend health); GET /metrics
	// merges it with the backends' scrapes.
	reg     *telemetry.Registry
	metrics routerMetrics
}

// New builds a router over cfg.Backends (shard i+1 = Backends[i], paired
// with Standbys[i] when given) and starts its background re-probe loop.
// Endpoints start healthy: the first failed call degrades them, the probe
// loop and successful calls recover them.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	if len(cfg.Standbys) > len(cfg.Backends) {
		return nil, errors.New("cluster: more standbys than backends")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = DefaultProbeEvery
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = DefaultFailAfter
	}
	if cfg.PromoteAfter <= 0 {
		cfg.PromoteAfter = DefaultPromoteAfter
	}
	if cfg.SubmitTimeout <= 0 {
		cfg.SubmitTimeout = DefaultSubmitTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	r := &Router{
		cfg:    cfg,
		shards: make(map[int]*shard),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		reg:    telemetry.NewRegistry(),
	}
	r.registerMetrics()
	for i, base := range cfg.Backends {
		standby := ""
		if i < len(cfg.Standbys) {
			standby = cfg.Standbys[i]
		}
		if _, err := r.addShardLocked(base, standby); err != nil {
			return nil, err
		}
	}
	r.rebuildRingLocked()
	go r.probeLoop()
	return r, nil
}

// registerMetrics binds the router's own series. Counters survive shard
// membership churn; the per-backend up gauges are bound per endpoint in
// addShardLocked and removed with their shard.
func (r *Router) registerMetrics() {
	reg := r.reg
	r.metrics = routerMetrics{
		promotions: reg.Counter("hypersolve_cluster_promotions_total",
			"Standby promotions performed by the router's failover machine."),
		demotions: reg.Counter("hypersolve_cluster_demotions_total",
			"Stale primaries demoted back to standby after healing."),
		readFailovers: reg.Counter("hypersolve_cluster_read_failovers_total",
			"Point reads, listings and event streams served by a shard's alternate endpoint after the active one failed."),
		spillovers: reg.Counter("hypersolve_cluster_submit_spillovers_total",
			"Submissions placed past their ring-assigned shard because it was degraded or refused."),
		proxiedStreams: reg.Counter("hypersolve_cluster_proxied_streams_total",
			"SSE event streams proxied through the router to a backend."),
		scrapeErrors: reg.Counter("hypersolve_cluster_scrape_errors_total",
			"Backend /metrics scrapes that failed during aggregation."),
	}
	reg.GaugeFunc("hypersolve_cluster_shards",
		"Shards currently fronted by the router.",
		func() float64 { return float64(r.Shards()) })
	reg.Gauge("hypersolve_build_info",
		"Build identity of this process; the value is always 1, the identity lives in the labels.",
		telemetry.Label{Key: "version", Value: version.Version},
		telemetry.Label{Key: "commit", Value: version.Commit}).Set(1)
}

// upGauge binds the per-backend reachability series for one endpoint.
func (r *Router) upGauge(shardID int, base string) *telemetry.Gauge {
	return r.reg.Gauge("hypersolve_cluster_backend_up",
		"Per-backend reachability as seen by the router (1 healthy, 0 degraded).",
		telemetry.Label{Key: "shard", Value: strconv.Itoa(shardID)},
		telemetry.Label{Key: "url", Value: base})
}

// Close stops the background re-probe loop.
func (r *Router) Close() {
	r.stopped.Do(func() { close(r.stop) })
	<-r.done
}

// Shards returns the number of shards fronted by the router.
func (r *Router) Shards() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.shards)
}

// shardByID resolves a shard number under the read lock.
func (r *Router) shardByID(id int) *shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[id]
}

// shardList snapshots the shards ordered by ID.
func (r *Router) shardList() []*shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*shard, 0, len(r.shards))
	for _, sh := range r.shards {
		out = append(out, sh)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}
