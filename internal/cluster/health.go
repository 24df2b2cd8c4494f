package cluster

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"time"

	"hypersolve/internal/service"
	"hypersolve/internal/telemetry"
	"hypersolve/internal/version"
)

// endpoint is one daemon (a primary or a standby) plus the router's view of
// its health.
type endpoint struct {
	base   string
	client *service.Client
	// up mirrors the healthy flag into the router's telemetry registry,
	// labeled by shard and URL (bound in addShardLocked).
	up *telemetry.Gauge

	mu      sync.Mutex
	healthy bool
	lastErr string // failure that degraded it, "" when healthy
	// probeFails counts consecutive failed probes; downSince is stamped
	// when it first reaches the FailAfter threshold. Together they gate
	// promotion — routing health is the healthy flag alone.
	probeFails int
	downSince  time.Time
}

func (e *endpoint) setHealthy() {
	e.mu.Lock()
	e.healthy, e.lastErr = true, ""
	e.probeFails, e.downSince = 0, time.Time{}
	e.mu.Unlock()
	e.up.Set(1)
}

func (e *endpoint) setDegraded(err error) {
	e.mu.Lock()
	e.healthy, e.lastErr = false, err.Error()
	e.mu.Unlock()
	e.up.Set(0)
}

// probeFailed records one failed background probe, degrading the endpoint
// immediately and stamping the down clock once failAfter consecutive
// probes have failed.
func (e *endpoint) probeFailed(err error, failAfter int) {
	e.mu.Lock()
	e.healthy, e.lastErr = false, err.Error()
	if e.probeFails++; e.probeFails >= failAfter && e.downSince.IsZero() {
		e.downSince = time.Now()
	}
	e.mu.Unlock()
	e.up.Set(0)
}

func (e *endpoint) state() (healthy bool, lastErr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.healthy, e.lastErr
}

func (e *endpoint) isHealthy() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.healthy
}

// downFor reports whether the endpoint has been down (failAfter consecutive
// failed probes) for at least grace.
func (e *endpoint) downFor(failAfter int, grace time.Duration) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.probeFails >= failAfter && !e.downSince.IsZero() && time.Since(e.downSince) >= grace
}

func (r *Router) probeLoop() {
	defer close(r.done)
	tick := time.NewTicker(r.cfg.ProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.probeJittered()
			r.reconcile()
		}
	}
}

// probeJittered probes every endpoint in the fleet, each delayed by a small
// random jitter so the fleet never sees a synchronized probe wave, each
// bounded by probeTimeout on a background context — a cancelled or slow
// caller elsewhere cannot starve health detection.
func (r *Router) probeJittered() {
	maxJitter := r.cfg.ProbeEvery / 5
	if maxJitter > 200*time.Millisecond {
		maxJitter = 200 * time.Millisecond
	}
	var wg sync.WaitGroup
	for _, sh := range r.shardList() {
		sh.mu.Lock()
		eps := []*endpoint{sh.primary}
		if sh.standby != nil {
			eps = append(eps, sh.standby)
		}
		sh.mu.Unlock()
		for _, ep := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if maxJitter > 0 {
					select {
					case <-r.stop:
						return
					case <-time.After(time.Duration(rand.Int64N(int64(maxJitter)))):
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
				defer cancel()
				if _, err := ep.client.Health(ctx); err != nil {
					ep.probeFailed(err, r.cfg.FailAfter)
					return
				}
				ep.setHealthy()
			}()
		}
	}
	wg.Wait()
}

// reconcile drives the failover state machine after each probe round:
//
//   - A shard whose primary has been down for FailAfter consecutive probes
//     plus the PromoteAfter grace period, with a healthy standby, has the
//     standby promoted: its replica store goes read-write (bumping the
//     fencing epoch) and re-runs whatever the dead primary left queued.
//   - A promoted shard whose old primary is reachable again demotes it:
//     the stale node discards its divergent tail, re-syncs from the new
//     primary, and becomes the shard's standby — roles swap, no
//     split-brain.
func (r *Router) reconcile() {
	for _, sh := range r.shardList() {
		sh.mu.Lock()
		if sh.standby == nil {
			sh.mu.Unlock()
			continue
		}
		switch {
		case !sh.activeStandby:
			primary, standby := sh.primary, sh.standby
			sh.mu.Unlock()
			if !primary.downFor(r.cfg.FailAfter, r.cfg.PromoteAfter) || !standby.isHealthy() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			res, err := standby.client.Promote(ctx)
			cancel()
			if err != nil {
				r.cfg.Logger.Warn("shard promotion failed", "shard", sh.id,
					"standby", standby.base, "error", err)
				continue
			}
			sh.mu.Lock()
			sh.activeStandby, sh.promoted = true, true
			sh.mu.Unlock()
			r.metrics.promotions.Inc()
			r.cfg.Logger.Info("shard failed over", "shard", sh.id,
				"standby", standby.base, "epoch", res.Epoch, "requeued", len(res.Requeued))
		default:
			// Promoted: heal the old primary once it answers probes again.
			oldPrimary, newPrimary := sh.primary, sh.standby
			sh.mu.Unlock()
			if !oldPrimary.isHealthy() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			_, err := oldPrimary.client.Demote(ctx, newPrimary.base)
			cancel()
			if err != nil {
				r.cfg.Logger.Warn("stale primary demotion failed", "shard", sh.id,
					"primary", oldPrimary.base, "error", err)
				continue
			}
			sh.mu.Lock()
			sh.primary, sh.standby = newPrimary, oldPrimary
			sh.activeStandby = false
			sh.mu.Unlock()
			r.metrics.demotions.Inc()
			r.cfg.Logger.Info("shard healed", "shard", sh.id,
				"demoted", oldPrimary.base, "primary", newPrimary.base)
		}
	}
}

// probe checks every endpoint's /healthz concurrently (each attempt bounded
// by probeTimeout), updating the degraded flags, and returns both the active
// and alternate endpoints' reports per shard (zero Health where unreachable
// or unreplicated), keyed by position in shardList. The alternate's report
// carries the standby's replication lag. When the parent context is
// cancelled mid-probe the remaining verdicts are discarded rather than
// recorded: an impatient /v1/cluster caller must not degrade healthy
// backends.
func (r *Router) probe(parent context.Context) (active, standby []service.Health) {
	shards := r.shardList()
	active = make([]service.Health, len(shards))
	standby = make([]service.Health, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		probeOne := func(ep *endpoint, record *service.Health) {
			defer wg.Done()
			*record, _, _ = call(parent, ep, func(c *service.Client) (service.Health, error) {
				ctx, cancel := context.WithTimeout(parent, probeTimeout)
				defer cancel()
				h, err := c.Health(ctx)
				if err != nil {
					// A /healthz that answers with an error status is as
					// unhealthy as one that does not answer.
					return service.Health{}, errors.New(err.Error())
				}
				return h, nil
			})
		}
		act, alt := sh.active(), sh.alternate()
		wg.Add(1)
		go probeOne(act, &active[i])
		if alt != nil {
			wg.Add(1)
			go probeOne(alt, &standby[i])
		}
	}
	wg.Wait()
	return active, standby
}

// BackendHealth is one shard's row in the cluster report.
type BackendHealth struct {
	// Shard is the shard number (job IDs s<Shard>-…).
	Shard int `json:"shard"`
	// Base is the shard's active endpoint URL — the daemon serving its
	// reads and writes right now.
	Base string `json:"base"`
	// Healthy reports the active endpoint's reachability as of this probe.
	Healthy bool `json:"healthy"`
	// Error is the failure that degraded the active endpoint.
	Error string `json:"error,omitempty"`
	// Standby is the shard's other endpoint (the replica, or the healed
	// old primary after a failover); StandbyHealthy its reachability.
	Standby        string `json:"standby,omitempty"`
	StandbyHealthy bool   `json:"standby_healthy,omitempty"`
	// Promoted reports that this shard has failed over at least once.
	Promoted bool `json:"promoted,omitempty"`
	// Draining marks the shard excluded from new placements.
	Draining bool `json:"draining,omitempty"`
	// QueueDepth, Workers and Jobs mirror the active endpoint's own
	// /healthz report; zero/empty when it is unreachable.
	QueueDepth int                   `json:"queue_depth,omitempty"`
	Workers    int                   `json:"workers,omitempty"`
	Jobs       map[service.State]int `json:"jobs,omitempty"`
	// Queued and StepsPerSec are the active endpoint's headline gauges:
	// live admission-queue occupancy and aggregate simulator stepping rate.
	Queued      int     `json:"queued,omitempty"`
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`
	// ReplicationLag is how many records the shard's standby trails its
	// primary by, from the standby's own health report; absent when the
	// shard is unreplicated or the standby is unreachable.
	ReplicationLag int64 `json:"replication_lag,omitempty"`
}

// Health is the /v1/cluster payload: the fleet verdict plus one row per
// shard.
type Health struct {
	// Status is "ok" when every shard's active endpoint is reachable,
	// "degraded" when some are, and "down" when none is, which includes a
	// fleet with no shards left: it can place nothing.
	Status string `json:"status"`
	// Shards is the configured shard count; Healthy of them answered.
	Shards  int                   `json:"shards"`
	Healthy int                   `json:"healthy"`
	Jobs    map[service.State]int `json:"jobs,omitempty"`
	// Queued and StepsPerSec sum the healthy shards' headline gauges;
	// MaxReplicationLag is the worst standby lag across the fleet.
	Queued            int             `json:"queued,omitempty"`
	StepsPerSec       float64         `json:"steps_per_sec,omitempty"`
	MaxReplicationLag int64           `json:"max_replication_lag,omitempty"`
	Backends          []BackendHealth `json:"backends"`
	// Version is the router binary's build identity (internal/version).
	Version string `json:"version,omitempty"`
}

// Health probes every endpoint live (bounded by probeTimeout each) and
// reports per-shard reachability, roles, queue depth and aggregated job
// counts. The probe updates the routing health state, so reading
// /v1/cluster also heals backends that have come back.
func (r *Router) Health(ctx context.Context) Health {
	reports, standbyReports := r.probe(ctx)
	shards := r.shardList()

	out := Health{Shards: len(shards), Jobs: make(map[service.State]int),
		Backends: make([]BackendHealth, 0, len(shards)), Version: version.String()}
	for i, sh := range shards {
		sh.mu.Lock()
		promoted, draining := sh.promoted, sh.draining
		sh.mu.Unlock()
		active, alt := sh.active(), sh.alternate()
		healthy, lastErr := active.state()
		row := BackendHealth{
			Shard:    sh.id,
			Base:     active.base,
			Healthy:  healthy,
			Error:    lastErr,
			Promoted: promoted,
			Draining: draining,
		}
		if alt != nil {
			row.Standby = alt.base
			row.StandbyHealthy, _ = alt.state()
			if row.StandbyHealthy {
				row.ReplicationLag = standbyReports[i].ReplicationLag
				if row.ReplicationLag > out.MaxReplicationLag {
					out.MaxReplicationLag = row.ReplicationLag
				}
			}
		}
		if healthy {
			out.Healthy++
			row.QueueDepth = reports[i].QueueDepth
			row.Workers = reports[i].Workers
			row.Jobs = reports[i].Jobs
			row.Queued = reports[i].Queued
			row.StepsPerSec = reports[i].StepsPerSec
			out.Queued += row.Queued
			out.StepsPerSec += row.StepsPerSec
			for st, n := range reports[i].Jobs {
				out.Jobs[st] += n
			}
		}
		out.Backends = append(out.Backends, row)
	}
	switch out.Healthy {
	case 0:
		out.Status = "down"
	case len(shards):
		out.Status = "ok"
	default:
		out.Status = "degraded"
	}
	return out
}
