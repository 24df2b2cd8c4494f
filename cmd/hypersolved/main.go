// Command hypersolved runs the solve service in one of three modes.
//
// Serve mode (the default) is a long-lived HTTP JSON server that accepts
// solve jobs, queues them behind a bounded admission queue, and executes
// them on a pool of simulated hyperspace machines:
//
//	hypersolved -addr :8080 -queue 64 -workers 4
//	hypersolved -addr :8080 -data-dir /var/lib/hypersolve   # durable job store
//
// Standby mode pairs a durable daemon with a primary: the node tails the
// primary's write-ahead journal over HTTP, applies every record to its own
// replica store, and serves read-only copies of the primary's jobs. A
// standby becomes a primary on POST /v1/replication/promote — the cluster
// router drives that automatically during failover:
//
//	hypersolved -addr :8081 -data-dir /var/lib/hs-b -follow http://127.0.0.1:8080
//
// Router mode fronts several serve-mode daemons as one sharded cluster:
// submissions are placed on a consistent-hash ring across the backends, job
// IDs carry their shard ("s2-17"), listings fan out to every backend and
// merge, and dead backends degrade the cluster instead of failing it. With
// -standbys, each backend pairs with a replica; the router fails reads over
// to the standby the moment the primary stops answering and promotes it
// after a grace period. Membership changes at runtime through
// POST /v1/cluster/backends (hyperctl cluster add-backend|drain|undrain|remove):
//
//	hypersolved -addr :8090 -route http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -standbys http://127.0.0.1:8083,http://127.0.0.1:8084
//
// API (see docs/API.md, internal/service and internal/cluster):
//
//	POST   /v1/jobs                 submit a JobSpec  (429 when the queue is full)
//	GET    /v1/jobs                 list jobs (?state=done,failed filters); fanned
//	                                out and merged in router mode
//	GET    /v1/jobs/{id}            job status + result; routed by shard in router mode
//	GET    /v1/jobs/{id}/trace      the job's span timeline (admission → queue → run …)
//	DELETE /v1/jobs/{id}            cancel a queued or running job
//	GET    /healthz                 liveness + queue occupancy + headline gauges
//	GET    /metrics                 Prometheus text scrape (all modes; the router
//	                                merges every backend's scrape, relabeled by shard)
//	GET    /v1/replication/journal  WAL feed for standbys (durable nodes only)
//	GET    /v1/replication/status   role, epoch, LSN, replication lag
//	GET    /v1/cluster              per-shard health report (router mode only)
//	POST   /v1/cluster/backends     add/drain/undrain/remove a shard (router mode only)
//
// Example:
//
//	curl -s localhost:8080/v1/jobs -d '{"kind":"queens","n":6,"topology":"torus:8x8","mapper":"lbn"}'
//	curl -s localhost:8080/v1/jobs/1
//
// With -data-dir, every job transition is journaled (internal/store): a
// crashed or SIGKILLed daemon restarted on the same directory recovers all
// terminal job history and re-runs whatever was queued or running —
// spec+seed determinism makes the re-run bit-identical. -fsync trades
// throughput for power-loss durability; -snapshot-every bounds journal
// growth between compactions (snapshots are written off the transition
// path by a background compactor). A router holds no job state of its own:
// durability lives in the backends' data directories, so -data-dir and
// -route are mutually exclusive.
//
// A flag that the chosen mode would ignore (-fsync without -data-dir,
// -queue on a router, ...) is a usage error, exit status 2, so that no one
// believes it took effect.
//
// Observability: the process logs through log/slog to stderr
// (-log-level debug|info|warn|error, -log-format text|json, slog's text
// and JSON handlers). Every request is access-logged, gets an
// X-Request-Id echoed on the response, and carries any inbound W3C
// traceparent into the trace the service records per job (hyperctl
// trace <id> renders it). -pprof-addr exposes net/http/pprof on a
// separate private listener; -version prints the stamped build identity
// (set at link time via -ldflags "-X hypersolve/internal/version.Version=...").
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight HTTP requests finish, queued jobs are cancelled and running
// solves are interrupted at the next cancellation slice. A graceful
// shutdown is a deliberate drain — outstanding jobs are recorded as
// cancelled; only a crash leaves them to be re-queued at next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"hypersolve/internal/cluster"
	"hypersolve/internal/service"
	"hypersolve/internal/store"
	"hypersolve/internal/tracelog"
	"hypersolve/internal/version"
)

// logger is the process-wide structured logger, built from -log-level and
// -log-format before any mode starts. Every subsystem (HTTP access log,
// replication node, cluster router) derives from it, so one pair of flags
// governs the whole process.
var logger *slog.Logger

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		queue         = flag.Int("queue", service.DefaultQueueDepth, "admission queue depth (jobs beyond it are rejected with 429)")
		workers       = flag.Int("workers", 0, "solve workers (0 = GOMAXPROCS)")
		dataDir       = flag.String("data-dir", "", "durable job store directory (empty = in-memory; history dies with the process)")
		fsync         = flag.Bool("fsync", false, "fsync the journal after every record (survives power loss, much slower)")
		snapshotEvery = flag.Int("snapshot-every", store.DefaultSnapshotEvery,
			"journal records between snapshot compactions")
		follow = flag.String("follow", "",
			"standby mode: tail this primary's replication feed (requires -data-dir)")
		pullEvery = flag.Duration("pull-every", service.DefaultPullEvery,
			"standby mode: feed tail cadence once caught up (a lagging standby pulls continuously)")
		route = flag.String("route", "",
			"router mode: comma-separated backend base URLs (e.g. http://b1:8080,http://b2:8080); shard i is backend i+1")
		standbys = flag.String("standbys", "",
			"router mode: comma-separated standby URLs paired positionally with -route (empty slots allowed)")
		probeEvery = flag.Duration("probe-every", cluster.DefaultProbeEvery,
			"router mode: cadence of the backend health re-probe loop")
		failAfter = flag.Int("fail-after", cluster.DefaultFailAfter,
			"router mode: consecutive failed probes before a backend counts as down")
		promoteAfter = flag.Duration("promote-after", cluster.DefaultPromoteAfter,
			"router mode: grace period a primary stays down before its standby is promoted")
		submitTimeout = flag.Duration("submit-timeout", cluster.DefaultSubmitTimeout,
			"router mode: per-backend bound on one submission attempt during the ring walk")
		logLevel = flag.String("log-level", "info",
			"minimum log severity: debug, info, warn or error")
		logFormat = flag.String("log-format", "text",
			"log line encoding: text (human) or json (one object per line)")
		pprofAddr = flag.String("pprof-addr", "",
			"serve net/http/pprof on this private address (empty = disabled); keep it off the public listener")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("hypersolved", version.String())
		return
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkMode(set, *route != "", *dataDir != "", *follow != ""); err != nil {
		fmt.Fprintln(os.Stderr, "hypersolved:", err)
		os.Exit(2)
	}
	// A job's garbage (machine build, solve, result encoding) dwarfs what
	// the daemon keeps between jobs, so at the default GOGC=100 the
	// collector runs every few jobs and its cycles show up in tail latency.
	// Doubling the headroom halves them. An explicit GOGC still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(200)
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "hypersolved: -log-level:", err)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, opts))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, opts))
	default:
		fmt.Fprintf(os.Stderr, "hypersolved: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}
	var err error
	if *route != "" {
		cfg := cluster.Config{
			Backends:      strings.Split(*route, ","),
			ProbeEvery:    *probeEvery,
			FailAfter:     *failAfter,
			PromoteAfter:  *promoteAfter,
			SubmitTimeout: *submitTimeout,
			Logger:        logger,
		}
		if *standbys != "" {
			cfg.Standbys = strings.Split(*standbys, ",")
		}
		err = runRouter(*addr, cfg)
	} else {
		err = runServe(*addr, *queue, *workers, *dataDir, *fsync, *snapshotEvery, *follow, *pullEvery)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypersolved:", err)
		os.Exit(1)
	}
}

// checkMode refuses a set flag that the chosen mode would ignore: router
// mode is -route, a durable daemon has -data-dir and a standby -follow.
func checkMode(set map[string]bool, router, durable, standby bool) error {
	for _, rule := range []struct {
		applies bool
		flags   []string
		why     string
	}{
		{router, []string{"queue", "workers", "data-dir", "fsync", "snapshot-every", "follow", "pull-every"},
			"a router (-route) holds no job state and runs no solves; give each backend its own"},
		{!router, []string{"standbys", "probe-every", "fail-after", "promote-after", "submit-timeout"},
			"it configures router mode, which needs -route"},
		{!durable, []string{"fsync", "snapshot-every", "follow"},
			"it needs -data-dir: without one the job store is in memory"},
		{!standby, []string{"pull-every"},
			"it configures standby mode, which needs -follow"},
	} {
		if !rule.applies {
			continue
		}
		for _, name := range rule.flags {
			if set[name] {
				return fmt.Errorf("-%s is ignored in this mode: %s", name, rule.why)
			}
		}
	}
	return nil
}

func runServe(addr string, queue, workers int, dataDir string, fsync bool, snapshotEvery int, follow string, pullEvery time.Duration) error {
	if dataDir == "" {
		svc := service.New(service.Config{QueueDepth: queue, Workers: workers})
		depth, pool := svc.Queue()
		return serve(addr, service.NewHandler(svc), svc.Close, "listening", "mode", "serve",
			"queue_depth", depth, "workers", pool, "version", version.String())
	}
	// Durable daemons run as replication nodes: same solve service, plus
	// the WAL feed standbys tail and the promote/demote control surface.
	node, err := service.NewNode(service.NodeConfig{
		Dir:           dataDir,
		Fsync:         fsync,
		SnapshotEvery: snapshotEvery,
		QueueDepth:    queue,
		Workers:       workers,
		Follow:        follow,
		PullEvery:     pullEvery,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	st := node.Status()
	attrs := []any{"mode", "durable", "role", st.Role, "store", dataDir,
		"epoch", st.Epoch, "lsn", st.LSN, "version", version.String()}
	if follow != "" {
		attrs = append(attrs, "following", follow)
	}
	return serve(addr, node.Handler(), node.Close, "listening", attrs...)
}

func runRouter(addr string, cfg cluster.Config) error {
	r, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	return serve(addr, cluster.NewHandler(r), r.Close, "routing", "mode", "router",
		"shards", r.Shards(), "version", version.String())
}

// servePprof exposes net/http/pprof on its own private listener. The
// handlers are mounted on a dedicated mux (never the public API mux), so
// profiling stays opt-in and off the service surface; deployments bind it
// to localhost or a management network.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("pprof server failed", "error", err)
	}
}

// serve runs the HTTP loop shared by all modes: listen on addr, log msg
// with the address actually bound (so -addr 127.0.0.1:0 reports its port)
// and attrs, and on SIGINT/SIGTERM drain in-flight requests before closing
// the service (node or router) behind the handler. Every request passes
// through the tracelog middleware: X-Request-Id is stamped/echoed, the
// inbound traceparent lands in the request context, and one access-log line
// is emitted per request.
func serve(addr string, handler http.Handler, closeBackend func(), msg string, attrs ...any) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		closeBackend()
		return err
	}
	logger.Info(msg, append([]any{"addr", ln.Addr().String()}, attrs...)...)
	srv := &http.Server{
		Handler:           tracelog.Middleware(logger, handler),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		closeBackend()
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	closeBackend()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
