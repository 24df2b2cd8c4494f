package cluster

import (
	"context"
	"strconv"
	"sync"

	"hypersolve/internal/telemetry"
)

// Metrics assembles the fleet-wide scrape: the router's own registry plus
// every healthy endpoint's /metrics, fetched concurrently (each bounded by
// probeTimeout), with each backend series relabeled by shard, role and
// backend URL before the merge — the listing path's fan-out/merge applied
// to the metrics plane. Unreachable endpoints are skipped (and counted in
// hypersolve_cluster_scrape_errors_total when a fetch fails outright), so a
// dead shard degrades the aggregate instead of failing it.
func (r *Router) Metrics(ctx context.Context) []telemetry.Family {
	shards := r.shardList()
	// Two slots per shard: active then alternate, so merge input order is
	// deterministic regardless of goroutine completion order.
	scraped := make([][]telemetry.Family, 2*len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		scrapeOne := func(slot int, shardID int, ep *endpoint, role string) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			raw, err := ep.client.RawMetrics(cctx)
			if err != nil {
				r.metrics.scrapeErrors.Inc()
				return
			}
			fams := telemetry.ParseText(raw)
			telemetry.AddLabels(fams,
				telemetry.Label{Key: "shard", Value: strconv.Itoa(shardID)},
				telemetry.Label{Key: "role", Value: role},
				telemetry.Label{Key: "backend", Value: ep.base})
			scraped[slot] = fams
		}
		for k, ep := range []*endpoint{sh.active(), sh.alternate()} {
			if ep == nil || !ep.isHealthy() {
				continue
			}
			role := "active"
			if k == 1 {
				role = "standby"
			}
			wg.Add(1)
			go scrapeOne(2*i+k, sh.id, ep, role)
		}
	}
	wg.Wait()
	groups := [][]telemetry.Family{r.reg.Families()}
	for _, fams := range scraped {
		if fams != nil {
			groups = append(groups, fams)
		}
	}
	return telemetry.MergeFamilies(groups...)
}
