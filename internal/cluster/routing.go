package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"hypersolve/internal/service"
)

// call runs one request against an endpoint and keeps the endpoint's health
// flags from how it ended — the only place the router classifies a backend
// error. Success marks the endpoint healthy. An error the backend answered
// with (an HTTP verdict: it spoke) or one the caller caused by giving up on
// ctx says nothing about reachability and leaves the flags alone. Anything
// else is a transport-level failure: the endpoint is degraded and
// unreachable reports true, which is what lets callers try elsewhere.
func call[T any](ctx context.Context, ep *endpoint, fn func(*service.Client) (T, error)) (out T, unreachable bool, err error) {
	out, err = fn(ep.client)
	if err == nil {
		ep.setHealthy()
	} else if _, spoke := service.ErrorStatus(err); !spoke && ctx.Err() == nil {
		ep.setDegraded(err)
		unreachable = true
	}
	return out, unreachable, err
}

// read is call against the shard's active endpoint with the standby read
// failover: when the active endpoint is unreachable the same request goes to
// the shard's alternate, whose replica store serves the same records, so a
// freshly dead primary answers reads immediately — promotion can take its
// grace period without blinding the fleet. It returns the endpoint that
// answered; when neither does, the active endpoint's error.
func read[T any](ctx context.Context, r *Router, sh *shard, fn func(*service.Client) (T, error)) (T, *endpoint, error) {
	ep := sh.active()
	out, unreachable, err := call(ctx, ep, fn)
	if unreachable {
		if alt := sh.alternate(); alt != nil {
			if altOut, _, altErr := call(ctx, alt, fn); altErr == nil {
				r.metrics.readFailovers.Inc()
				return altOut, alt, nil
			}
		}
	}
	return out, ep, err
}

// Submit places the spec on its ring-assigned shard and returns the
// accepted job with its sharded ID. When the assigned shard is degraded or
// fails at the transport level, placement walks the ring to the next
// distinct shard — the ID records where the job actually landed, so
// spillover placement stays fully addressable. Draining shards are skipped
// entirely. Each backend attempt is bounded by SubmitTimeout, so one hung
// backend cannot stall admission past the walk. A backend that answers
// with an HTTP verdict (400 bad spec, 429 after the client's retries, 503)
// ends the walk: the backend spoke for the cluster.
func (r *Router) Submit(ctx context.Context, spec service.JobSpec) (service.Job, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return service.Job{}, err
	}
	r.mu.RLock()
	ring := r.ring
	r.mu.RUnlock()
	seq := ring.sequence(data)
	// The ring's first live choice, for spillover accounting: landing
	// anywhere else means placement walked past the assigned shard.
	firstChoice := 0
	for _, sid := range seq {
		if sh := r.shardByID(sid); sh != nil && !sh.isDraining() {
			firstChoice = sid
			break
		}
	}
	// First pass: healthy shards in ring order. Second pass: shards that
	// were already degraded at entry — they may have just come back, and
	// trying beats failing. Shards that failed during the first pass are
	// not retried: they cannot have recovered in microseconds, and
	// re-paying their transport timeout would double outage latency.
	tried := make(map[int]bool, len(seq))
	var lastTransportErr error
	for _, wantHealthy := range []bool{true, false} {
		for _, sid := range seq {
			sh := r.shardByID(sid)
			if sh == nil || sh.isDraining() || tried[sid] {
				continue
			}
			ep := sh.active()
			if ep.isHealthy() != wantHealthy {
				continue
			}
			tried[sid] = true
			job, unreachable, err := call(ctx, ep, func(c *service.Client) (service.Job, error) {
				attemptCtx, cancel := context.WithTimeout(ctx, r.cfg.SubmitTimeout)
				defer cancel()
				return c.Submit(attemptCtx, spec)
			})
			if err == nil {
				if sh.id != firstChoice {
					r.metrics.spillovers.Inc()
				}
				job.ID.Shard = sh.id
				return job, nil
			}
			if !unreachable {
				return service.Job{}, err
			}
			lastTransportErr = err
		}
	}
	if lastTransportErr != nil {
		return service.Job{}, fmt.Errorf("%w: %v", ErrNoBackends, lastTransportErr)
	}
	return service.Job{}, ErrNoBackends
}

// route resolves a sharded ID to its shard.
func (r *Router) route(id service.JobID) (*shard, error) {
	if !id.Sharded() {
		return nil, fmt.Errorf("%w: %q", ErrUnsharded, id)
	}
	sh := r.shardByID(id.Shard)
	if sh == nil {
		return nil, fmt.Errorf("%w: %q names shard %d", ErrUnknownShard, id, id.Shard)
	}
	return sh, nil
}

// Get fetches one job from the shard encoded in its ID, failing over to the
// shard's standby (see read).
func (r *Router) Get(ctx context.Context, id service.JobID) (service.Job, error) {
	sh, err := r.route(id)
	if err != nil {
		return service.Job{}, err
	}
	job, _, err := read(ctx, r, sh, func(c *service.Client) (service.Job, error) {
		return c.Get(ctx, service.JobID{Seq: id.Seq})
	})
	if err != nil {
		return service.Job{}, err
	}
	job.ID.Shard = sh.id
	return job, nil
}

// Trace fetches one job's span timeline from the shard encoded in its ID,
// with the same standby read-failover as Get: the timeline rides the
// replication feed, so a standby serves it (plus its own replica_apply
// spans) while the primary is dead.
func (r *Router) Trace(ctx context.Context, id service.JobID) (service.JobTrace, error) {
	sh, err := r.route(id)
	if err != nil {
		return service.JobTrace{}, err
	}
	jt, _, err := read(ctx, r, sh, func(c *service.Client) (service.JobTrace, error) {
		return c.Trace(ctx, service.JobID{Seq: id.Seq})
	})
	if err != nil {
		return service.JobTrace{}, err
	}
	jt.JobID.Shard = sh.id
	return jt, nil
}

// Cancel stops a job on the shard encoded in its ID. Cancels do not fail
// over: a standby is read-only, and a cancel applied to a replica view
// would be lost at promotion anyway.
func (r *Router) Cancel(ctx context.Context, id service.JobID) (service.Job, error) {
	sh, err := r.route(id)
	if err != nil {
		return service.Job{}, err
	}
	job, _, err := call(ctx, sh.active(), func(c *service.Client) (service.Job, error) {
		return c.Cancel(ctx, service.JobID{Seq: id.Seq})
	})
	if err != nil {
		return service.Job{}, err
	}
	job.ID.Shard = sh.id
	return job, nil
}

// openEvents opens the owning shard's raw SSE stream for a job (see
// service.Client.OpenEvents), returning the stream plus the endpoint
// serving it so the proxy can degrade it on a mid-stream death. A
// transport-level failure to open fails over to the shard's standby, which
// can replay terminal jobs' streams (live streams need the primary).
func (r *Router) openEvents(ctx context.Context, id service.JobID) (io.ReadCloser, *endpoint, error) {
	sh, err := r.route(id)
	if err != nil {
		return nil, nil, err
	}
	body, ep, err := read(ctx, r, sh, func(c *service.Client) (io.ReadCloser, error) {
		return c.OpenEvents(ctx, service.JobID{Seq: id.Seq})
	})
	if err != nil {
		return nil, nil, err
	}
	return body, ep, nil
}

// Watch streams a job's progress events from its owning shard, with the
// same contract as service.Client.Watch — the library-level counterpart of
// the HTTP proxy.
func (r *Router) Watch(ctx context.Context, id service.JobID, fn func(service.Progress)) error {
	body, _, err := r.openEvents(ctx, id)
	if err != nil {
		return err
	}
	defer body.Close()
	return service.DecodeEvents(ctx, body, fn)
}

// List fans the listing out to every shard concurrently and merges the
// results ordered by ID (shard, then sequence). A shard whose active
// endpoint fails at the transport level is retried against its standby;
// only a shard with no reachable endpoint is skipped — complete reports
// false and the listing is the union of the reachable shards. Only when
// every shard fails does List return an error.
func (r *Router) List(ctx context.Context, states ...service.State) (jobs []service.Job, complete bool, err error) {
	shards := r.shardList()
	type result struct {
		jobs []service.Job
		err  error
	}
	results := make([]result, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := read(ctx, r, sh, func(c *service.Client) ([]service.Job, error) {
				return c.List(ctx, states...)
			})
			if err != nil {
				results[i] = result{err: err}
				return
			}
			for k := range got {
				got[k].ID.Shard = sh.id
			}
			results[i] = result{jobs: got}
		}()
	}
	wg.Wait()

	// Non-nil even when empty: a single daemon's GET /v1/jobs returns [],
	// and the router must match that wire contract, not emit null.
	jobs = make([]service.Job, 0)
	complete = true
	var firstErr error
	reachable := 0
	for _, res := range results {
		if res.err != nil {
			complete = false
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		reachable++
		jobs = append(jobs, res.jobs...)
	}
	if reachable == 0 {
		return nil, false, fmt.Errorf("%w: %v", ErrNoBackends, firstErr)
	}
	// Backends return their jobs ID-ordered; the merge re-sorts the
	// concatenation so the router's ordering contract matches a single
	// daemon's: ascending by (shard, seq).
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID.Less(jobs[k].ID) })
	return jobs, complete, nil
}
