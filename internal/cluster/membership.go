package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hypersolve/internal/service"
	"hypersolve/internal/telemetry"
	"hypersolve/internal/tracelog"
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
	r.log().Info("shard added", tracelog.A("shard", id), tracelog.A("primary", primary))
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
	r.log().Info("shard drain toggled", tracelog.A("shard", id), tracelog.A("draining", drain))
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
	r.log().Info("shard removed", tracelog.A("shard", id))
	return nil
}

// MemberSpec is one shard in a membership config (the -route-config file
// reloaded on SIGHUP).
type MemberSpec struct {
	Primary string `json:"primary"`
	Standby string `json:"standby,omitempty"`
}

// ApplyMembership reconciles the fleet against a full desired member list
// (the SIGHUP config-reload path): primaries present in specs but not in
// the fleet are added (with their standbys); shards whose primary URL is
// absent from specs are drained — not removed, so their jobs stay
// readable until an operator explicitly retires them. Shards are matched
// by primary URL (either role's URL matches a promoted shard). It returns
// the added and drained shard IDs.
func (r *Router) ApplyMembership(specs []MemberSpec) (added, drained []int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	want := make(map[string]bool, len(specs))
	for _, m := range specs {
		want[strings.TrimSuffix(strings.TrimSpace(m.Primary), "/")] = true
	}
	// Drain shards no longer in the desired set.
	for id, sh := range r.shards {
		sh.mu.Lock()
		present := want[sh.primary.base] || (sh.standby != nil && want[sh.standby.base])
		if !present && !sh.draining {
			sh.draining = true
			drained = append(drained, id)
		}
		sh.mu.Unlock()
	}
	// Add new shards.
	known := func(base string) bool {
		base = strings.TrimSuffix(strings.TrimSpace(base), "/")
		for _, sh := range r.shards {
			if sh.primary.base == base || (sh.standby != nil && sh.standby.base == base) {
				return true
			}
		}
		return false
	}
	for _, m := range specs {
		if known(m.Primary) {
			continue
		}
		id, aerr := r.addShardLocked(m.Primary, m.Standby)
		if aerr != nil {
			err = aerr
			break
		}
		added = append(added, id)
	}
	r.rebuildRingLocked()
	sort.Ints(added)
	sort.Ints(drained)
	if len(added) > 0 || len(drained) > 0 {
		r.log().Info("membership reloaded",
			tracelog.A("added", fmt.Sprint(added)), tracelog.A("drained", fmt.Sprint(drained)))
	}
	return added, drained, err
}
