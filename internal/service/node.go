package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hypersolve/internal/store"
	"hypersolve/internal/telemetry"
	"hypersolve/internal/tracelog"
	"hypersolve/internal/version"
)

// A Node is one member of a replicated shard: a durable store plus a role.
// A primary runs the full Service (workers, admission queue) and serves its
// journal as a replication feed; a standby holds a replica store that tails
// a primary's feed and serves read-only copies of its jobs. Promote flips a
// standby to primary in place — the replica store goes read-write, jobs the
// dead primary left running are re-queued and re-run, and the HTTP surface
// swaps from the read-only handler to the full Service handler without the
// listener noticing. Demote is the reverse: the healed old primary steps
// down, discards its divergent tail, and re-syncs from scratch.
//
// Both roles serve the replication control surface:
//
//	GET  /v1/replication/journal?from=N  feed page (records or snapshot)
//	GET  /v1/replication/status          role, epoch, LSN, lag
//	POST /v1/replication/promote         standby → primary
//	POST /v1/replication/demote          primary → standby ({"follow": url})
type Node struct {
	cfg NodeConfig
	// reg is the node's metrics registry: store, service and replication
	// metrics all land in it, and it is what GET /metrics serves in either
	// role.
	reg *telemetry.Registry

	// inner holds the role-dependent part of the HTTP surface (the
	// /v1/jobs API): NewHandler over the Service on a primary, over a
	// replicaView otherwise. Swapped atomically at role transitions.
	inner atomic.Value // http.Handler

	mu        sync.Mutex
	file      *store.File
	svc       *Service // nil while standby
	following string   // feed source URL; "" while primary

	// pullMu guards the pull loop's status fields separately from n.mu:
	// role transitions hold n.mu while joining the pull loop, so the loop
	// must never need n.mu itself. Lock order: n.mu before pullMu.
	pullMu    sync.Mutex
	sourceLSN int64  // primary's LSN as of the last successful pull
	pullErr   string // last pull failure, cleared by the next success
	lastLag   int64  // most recently logged lag (rate-limits the report)

	// pullErrors counts failed feed pulls across the node's lifetime
	// (role flips included — the counter survives store reopens).
	pullErrors *telemetry.Counter

	pullCancel context.CancelFunc
	pullDone   chan struct{}
	closed     bool
}

// DefaultPullEvery is the standby tail cadence NewNode applies to a zero
// NodeConfig.PullEvery.
const DefaultPullEvery = 250 * time.Millisecond

// NodeConfig configures one shard member: what it passes on to its store
// (Dir, Fsync, SnapshotEvery) and to its service while primary (QueueDepth,
// Workers), and its replication role. The node owns the rest: the store's
// replica mode follows the role, and one registry serves both.
type NodeConfig struct {
	// Dir is the durable store directory (required: replication is
	// meaningless without a journal).
	Dir string
	// Fsync and SnapshotEvery tune the journal; see store.FileConfig.
	Fsync         bool
	SnapshotEvery int
	// QueueDepth and Workers size the solve service once (or while) the
	// node is primary; see Config.
	QueueDepth int
	Workers    int
	// Follow, when non-empty, starts the node as a standby tailing the
	// given primary's replication feed. Empty starts it as a primary.
	Follow string
	// PullEvery is the standby's tail cadence once caught up (<= 0
	// defaults to DefaultPullEvery); a lagging standby pulls continuously.
	PullEvery time.Duration
	// Logger receives role transitions and the periodic lag report as
	// structured records; nil discards them.
	Logger *slog.Logger
}

// ReplicationStatus is the GET /v1/replication/status payload.
type ReplicationStatus struct {
	Role  string `json:"role"` // "primary" | "standby"
	Epoch int64  `json:"epoch"`
	LSN   int64  `json:"lsn"`
	// Following and Lag describe a standby's tail: the feed source URL and
	// how many records it trails the primary by (as of the last pull).
	Following string `json:"following,omitempty"`
	SourceLSN int64  `json:"source_lsn,omitempty"`
	Lag       int64  `json:"lag"`
	// LastError is the most recent pull failure, cleared on success.
	LastError string `json:"last_error,omitempty"`
}

// PromoteResult is the POST /v1/replication/promote payload.
type PromoteResult struct {
	Role  string `json:"role"`
	Epoch int64  `json:"epoch"`
	// Requeued lists jobs the dead primary left running, now queued again
	// on this node (empty on an idempotent re-promote).
	Requeued []JobID `json:"requeued,omitempty"`
}

// NewNode opens the store at cfg.Dir and starts the node in its configured
// role.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Dir == "" {
		return nil, errors.New("service: node requires a store directory")
	}
	if cfg.PullEvery <= 0 {
		cfg.PullEvery = DefaultPullEvery
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	n := &Node{cfg: cfg, reg: telemetry.NewRegistry()}
	f, err := n.openStore(cfg.Follow != "")
	if err != nil {
		return nil, err
	}
	n.file = f
	n.registerMetrics()
	if cfg.Follow != "" {
		n.startStandby(cfg.Follow, false)
	} else {
		n.startPrimary()
	}
	return n, nil
}

// Telemetry returns the node's metrics registry (shared with its store
// and, while primary, its service).
func (n *Node) Telemetry() *telemetry.Registry { return n.reg }

// openStore opens the node's store in the node's registry, as a replica or
// read-write.
func (n *Node) openStore(replica bool) (*store.File, error) {
	return store.Open(store.FileConfig{
		Dir:           n.cfg.Dir,
		Fsync:         n.cfg.Fsync,
		SnapshotEvery: n.cfg.SnapshotEvery,
		Replica:       replica,
		Telemetry:     n.reg,
	})
}

// registerMetrics publishes the replication surface: role, epoch, the
// local and source cursors, and the lag between them. All are sampled
// from Status at scrape time, so they stay correct across role flips.
func (n *Node) registerMetrics() {
	reg := n.Telemetry()
	n.pullErrors = reg.Counter("hypersolve_replication_pull_errors_total",
		"Failed replication feed pulls.")
	reg.GaugeFunc("hypersolve_replication_role",
		"1 while primary, 0 while standby.", func() float64 {
			if n.Status().Role == "primary" {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("hypersolve_replication_epoch",
		"Fencing epoch, bumped by each promotion.", func() float64 {
			return float64(n.Status().Epoch)
		})
	reg.GaugeFunc("hypersolve_replication_lsn",
		"Local log sequence number.", func() float64 {
			return float64(n.Status().LSN)
		})
	reg.GaugeFunc("hypersolve_replication_source_lsn",
		"Feed source's LSN as of the last successful pull (standby only).", func() float64 {
			return float64(n.Status().SourceLSN)
		})
	reg.GaugeFunc("hypersolve_replication_lag_records",
		"Records this standby trails its primary by.", func() float64 {
			return float64(n.Status().Lag)
		})
}

// startPrimary spins up the Service over the (read-write) store and swaps
// in the full handler. Callers hold n.mu or own the node exclusively.
func (n *Node) startPrimary() {
	n.svc = New(Config{QueueDepth: n.cfg.QueueDepth, Workers: n.cfg.Workers, Store: n.file, Telemetry: n.reg})
	n.following = ""
	n.inner.Store(NewHandler(n.svc))
}

// startStandby swaps in the read-only job API and starts the pull loop.
// reset forces a from-zero pull, discarding local state in favour of a
// fresh snapshot from the source (the demote path: a stepped-down primary
// cannot trust its divergent tail). Callers hold n.mu or own the node
// exclusively.
func (n *Node) startStandby(follow string, reset bool) {
	n.svc = nil
	n.following = follow
	n.inner.Store(NewHandler(replicaView{node: n, file: n.file}))
	ctx, cancel := context.WithCancel(context.Background())
	n.pullCancel = cancel
	n.pullDone = make(chan struct{})
	go n.pullLoop(ctx, follow, reset)
}

// stopPuller cancels and joins the pull loop, if one is running. Callers
// hold n.mu.
func (n *Node) stopPuller() {
	if n.pullCancel != nil {
		n.pullCancel()
		<-n.pullDone
		n.pullCancel, n.pullDone = nil, nil
	}
}

// pullLoop tails the source's replication feed into the replica store:
// continuously while behind, at PullEvery once caught up. Pull failures are
// retried forever — a dead primary is exactly when the standby must keep
// trying (it may be promoted any moment, which cancels the loop).
func (n *Node) pullLoop(ctx context.Context, follow string, reset bool) {
	defer close(n.pullDone)
	client := &Client{Base: follow}
	first := true
	for {
		var from int64
		if !reset || !first {
			_, lsn := n.file.ReplicationState()
			from = lsn + 1
		}
		first = false
		page, err := client.ReplicationFeed(ctx, from)
		var res store.FeedResult
		if err == nil {
			res, err = n.file.ApplyFeed(page, stampReplicaApply(time.Now().UTC()))
		}
		n.pullMu.Lock()
		if err != nil {
			n.pullErr = err.Error()
			n.pullErrors.Inc()
		} else {
			n.pullErr = ""
			n.sourceLSN = res.SourceLSN
			_, lsn := n.file.ReplicationState()
			if lag := res.SourceLSN - lsn; lag != n.lastLag {
				n.lastLag = lag
				if lag > 0 {
					n.cfg.Logger.Info("replication lag", "lag", lag, "source", follow)
				} else if res.Snapshot {
					n.cfg.Logger.Info("replication reset from snapshot", "source", follow, "lsn", lsn)
				}
			}
		}
		n.pullMu.Unlock()
		if err == nil && !res.Snapshot {
			_, lsn := n.file.ReplicationState()
			if res.SourceLSN > lsn {
				// Still behind: pull the next page immediately.
				select {
				case <-ctx.Done():
					return
				default:
					continue
				}
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(n.cfg.PullEvery):
		}
	}
}

// Promote flips a standby to primary: the pull loop stops, the replica
// store goes read-write (bumping the fencing epoch), and a full Service
// starts over it — its recovery path re-admits every queued job, including
// the ones the dead primary left running. Promoting a primary is a no-op
// reporting the current epoch, so a router's retried promotion converges.
func (n *Node) Promote() (PromoteResult, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return PromoteResult{}, ErrClosed
	}
	if n.svc != nil {
		epoch, _ := n.file.ReplicationState()
		return PromoteResult{Role: "primary", Epoch: epoch}, nil
	}
	n.stopPuller()
	epoch, requeued, err := n.file.Promote()
	if err != nil {
		n.cfg.Logger.Warn("promotion journal write degraded", "error", err)
	}
	n.startPrimary()
	res := PromoteResult{Role: "primary", Epoch: epoch}
	for _, id := range requeued {
		res.Requeued = append(res.Requeued, JobID{Seq: id})
	}
	n.cfg.Logger.Info("promoted to primary", "epoch", epoch, "requeued", len(res.Requeued))
	return res, nil
}

// Demote steps a primary down to a standby following the given URL. The
// service drains (running solves are interrupted, queued jobs cancelled —
// their records are about to be discarded anyway), the store reopens in
// replica mode, and the pull loop starts with a forced from-zero pull: a
// stepped-down primary's post-divergence tail cannot be trusted, so it is
// replaced wholesale by the new primary's snapshot. Demoting a standby just
// retargets (and resets) its tail.
func (n *Node) Demote(follow string) (ReplicationStatus, error) {
	if follow == "" {
		return ReplicationStatus{}, errors.New("service: demote requires a feed source url")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ReplicationStatus{}, ErrClosed
	}
	n.stopPuller()
	if n.svc != nil {
		n.svc.Close() // closes the store too
	} else if err := n.file.Close(); err != nil && !errors.Is(err, store.ErrClosed) {
		return ReplicationStatus{}, err
	}
	f, err := n.openStore(true)
	if err != nil {
		return ReplicationStatus{}, fmt.Errorf("service: reopening store as replica: %w", err)
	}
	n.file = f
	n.pullMu.Lock()
	n.sourceLSN, n.pullErr, n.lastLag = 0, "", 0
	n.pullMu.Unlock()
	n.startStandby(follow, true)
	n.cfg.Logger.Info("demoted to standby (full re-sync)", "source", follow)
	return n.statusLocked(), nil
}

// Status reports the node's role, replication cursor, and tail health.
func (n *Node) Status() ReplicationStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.statusLocked()
}

func (n *Node) statusLocked() ReplicationStatus {
	epoch, lsn := n.file.ReplicationState()
	st := ReplicationStatus{Epoch: epoch, LSN: lsn, Role: "primary"}
	if n.svc == nil {
		st.Role = "standby"
		st.Following = n.following
		n.pullMu.Lock()
		st.SourceLSN = n.sourceLSN
		st.LastError = n.pullErr
		n.pullMu.Unlock()
		if lag := st.SourceLSN - lsn; lag > 0 {
			st.Lag = lag
		}
	}
	return st
}

// Close stops the node: the pull loop, the service (when primary), and the
// store. Idempotent.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.stopPuller()
	svc, file := n.svc, n.file
	n.mu.Unlock()
	if svc != nil {
		svc.Close()
		return
	}
	_ = file.Close()
}

// Handler returns the node's full HTTP surface: the replication control
// endpoints plus the role-dependent job API (full Service handler on a
// primary, read-only store views on a standby). The handler stays valid
// across role transitions.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/journal", func(w http.ResponseWriter, r *http.Request) {
		from, err := queryInt64(r, "from")
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		limit, err := queryInt64(r, "limit")
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		page, err := n.file.Feed(from, int(limit))
		if err != nil {
			WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(page)
	})
	mux.HandleFunc("GET /v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, n.Status())
	})
	mux.HandleFunc("POST /v1/replication/promote", func(w http.ResponseWriter, r *http.Request) {
		res, err := n.Promote()
		if err != nil {
			WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		WriteJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/replication/demote", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Follow string `json:"follow"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding demote request: %w", err))
			return
		}
		st, err := n.Demote(body.Follow)
		if err != nil {
			status := http.StatusServiceUnavailable
			if body.Follow == "" {
				status = http.StatusBadRequest
			}
			WriteError(w, status, err)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
	// Registered on the outer mux so the node is scrapable in both roles;
	// the registry is shared with the store and (while primary) the
	// service, so one scrape sees the whole node.
	mux.HandleFunc("GET /metrics", MetricsHandler(n.Telemetry()))
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.inner.Load().(http.Handler).ServeHTTP(w, r)
	}))
	return mux
}

func queryInt64(r *http.Request, key string) (int64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("service: query parameter %s must be a non-negative integer", key)
	}
	return v, nil
}

// stampReplicaApply is the standby's arrive hook for store.ApplyFeed: a
// trace annotation gets a replica_apply span, from the pull of its page to
// the landing of its record, so a promoted standby serves traces that show
// when the replication stream delivered them.
func stampReplicaApply(pulled time.Time) func(key string, value json.RawMessage) json.RawMessage {
	return func(key string, value json.RawMessage) json.RawMessage {
		if key == annotationTrace {
			if stamped, err := tracelog.AppendSpan(value, "replica_apply", pulled, time.Now().UTC()); err == nil {
				return stamped
			}
		}
		return value
	}
}

// ErrStandby rejects mutations addressed to a standby: the caller (usually
// the router failing over a read) should submit to the primary.
var ErrStandby = errors.New("service: standby is read-only (this node follows a primary)")

// replicaView is a standby's job API, straight from the replica store: Get,
// List and Trace work (that is the point of a warm standby), mutations fail
// with ErrStandby, and event streams are served for terminal jobs only (a
// standby has no live brokers; its view of a running job is a replication
// tail, not a progress stream).
type replicaView struct {
	node *Node
	file *store.File
}

func (replicaView) SubmitTraced(JobSpec, tracelog.TraceContext) (Job, error) {
	return Job{}, ErrStandby
}
func (replicaView) Cancel(int64) (Job, error) { return Job{}, ErrStandby }

func (v replicaView) Get(id int64) (Job, bool) {
	sj, ok := v.file.Get(id)
	return jobFromRecord(sj), ok
}

func (v replicaView) List(states ...State) []Job {
	recs := v.file.List(states...)
	jobs := make([]Job, 0, len(recs))
	for _, sj := range recs {
		jobs = append(jobs, jobFromRecord(sj))
	}
	return jobs
}

func (v replicaView) Trace(id int64) (JobTrace, bool) {
	sj, ok := v.file.Get(id)
	return jobTraceFromRecord(sj), ok
}

func (v replicaView) Subscribe(id int64) (<-chan Progress, func(), error) {
	sj, ok := v.file.Get(id)
	if !ok {
		return nil, nil, ErrNotFound
	}
	if !sj.State.Terminal() {
		return nil, nil, fmt.Errorf("%w: live progress streams come from the primary", ErrStandby)
	}
	return terminalProgress(sj), func() {}, nil
}

func (v replicaView) Health() Health {
	return Health{
		Status:         "standby",
		Jobs:           countStates(v.file),
		ReplicationLag: v.node.Status().Lag,
		Version:        version.String(),
	}
}

func (v replicaView) Telemetry() *telemetry.Registry { return v.node.Telemetry() }
