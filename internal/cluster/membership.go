package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hypersolve/internal/service"
	"hypersolve/internal/telemetry"
)

// newEndpoint normalises a base URL into an endpoint, checking it against
// every URL already in the fleet (two shards on one store would double-run
// jobs). Callers hold r.mu.
func (r *Router) newEndpoint(base string, who string) (*endpoint, error) {
	base = strings.TrimSuffix(strings.TrimSpace(base), "/")
	if base == "" {
		return nil, fmt.Errorf("cluster: %s has an empty URL", who)
	}
	for _, sh := range r.shards {
		for _, e := range []*endpoint{sh.primary, sh.standby} {
			if e != nil && e.base == base {
				return nil, fmt.Errorf("cluster: duplicate backend %s (two shards on one store would double-run jobs)", base)
			}
		}
	}
	return &endpoint{
		base:    base,
		client:  &service.Client{Base: base},
		healthy: true,
	}, nil
}

// addShardLocked registers a new shard under the next free ID. Callers
// hold r.mu (or own the router exclusively, as New does) and rebuild the
// ring afterwards.
func (r *Router) addShardLocked(primary, standby string) (int, error) {
	p, err := r.newEndpoint(primary, fmt.Sprintf("shard %d primary", r.nextID+1))
	if err != nil {
		return 0, err
	}
	sh := &shard{id: r.nextID + 1, primary: p}
	if strings.TrimSpace(standby) != "" {
		// Register the primary before validating the standby so the
		// duplicate check sees it.
		r.shards[sh.id] = sh
		s, err := r.newEndpoint(standby, fmt.Sprintf("shard %d standby", sh.id))
		if err != nil {
			delete(r.shards, sh.id)
			return 0, err
		}
		sh.standby = s
	}
	r.shards[sh.id] = sh
	r.nextID = sh.id
	sh.primary.up = r.upGauge(sh.id, sh.primary.base)
	sh.primary.up.Set(1)
	if sh.standby != nil {
		sh.standby.up = r.upGauge(sh.id, sh.standby.base)
		sh.standby.up.Set(1)
	}
	return sh.id, nil
}

// rebuildRingLocked recomputes the placement ring over the non-draining
// shards. Callers hold r.mu.
func (r *Router) rebuildRingLocked() {
	ids := make([]int, 0, len(r.shards))
	for id, sh := range r.shards {
		if !sh.isDraining() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	r.ring = newRing(ids)
}

// AddShard registers a new shard (primary plus optional standby) and
// rebuilds the placement ring: only ~1/N of future placements move to the
// new shard; existing sharded IDs keep routing unchanged.
func (r *Router) AddShard(primary, standby string) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, err := r.addShardLocked(primary, standby)
	if err != nil {
		return 0, err
	}
	r.rebuildRingLocked()
	r.cfg.Logger.Info("shard added", "shard", id, "primary", primary)
	return id, nil
}

// DrainShard excludes a shard from new placements (drain=true) or restores
// it (drain=false); reads and cancels keep routing either way. Draining is
// the prerequisite for removal.
func (r *Router) DrainShard(id int, drain bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := r.shards[id]
	if sh == nil {
		return fmt.Errorf("%w: shard %d", ErrUnknownShard, id)
	}
	sh.mu.Lock()
	sh.draining = drain
	sh.mu.Unlock()
	r.rebuildRingLocked()
	r.cfg.Logger.Info("shard drain toggled", "shard", id, "draining", drain)
	return nil
}

// RemoveShard unregisters a drained shard. Its sharded IDs stop resolving
// through this router, so removal demands an explicit prior drain — the
// operator's acknowledgement that the shard's history has been retired or
// migrated.
func (r *Router) RemoveShard(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := r.shards[id]
	if sh == nil {
		return fmt.Errorf("%w: shard %d", ErrUnknownShard, id)
	}
	if !sh.isDraining() {
		return fmt.Errorf("%w: shard %d", ErrNotDraining, id)
	}
	delete(r.shards, id)
	// Retire the shard's reachability series with it; a removed backend
	// frozen at its last value would read as a live scrape target.
	sh.mu.Lock()
	for _, ep := range []*endpoint{sh.primary, sh.standby} {
		if ep != nil {
			r.cfg.Telemetry.Remove("hypersolve_cluster_backend_up",
				telemetry.Label{Key: "shard", Value: strconv.Itoa(sh.id)},
				telemetry.Label{Key: "url", Value: ep.base})
		}
	}
	sh.mu.Unlock()
	r.rebuildRingLocked()
	r.cfg.Logger.Info("shard removed", "shard", id)
	return nil
}
