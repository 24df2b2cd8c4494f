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
// after a grace period. Membership changes at runtime via
// POST /v1/cluster/backends or by editing -route-config and sending SIGHUP:
//
//	hypersolved -addr :8090 -route http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -standbys http://127.0.0.1:8083,http://127.0.0.1:8084
//	hypersolved -addr :8090 -route-config /etc/hypersolve/members.json
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
// The -route-config file is a JSON array of members, reloaded on SIGHUP:
//
//	[
//	  {"primary": "http://127.0.0.1:8081", "standby": "http://127.0.0.1:8083"},
//	  {"primary": "http://127.0.0.1:8082"}
//	]
//
// A reload adds unknown primaries as new shards and drains shards whose
// endpoints left the file; it never removes a shard outright (drain first,
// then remove via the API once its jobs are no longer needed).
//
// Observability: every request is access-logged through the structured
// logger (-log-level debug|info|warn|error, -log-format text|json), gets
// an X-Request-Id echoed on the response, and carries any inbound W3C
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
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
var logger *tracelog.Logger

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		queue         = flag.Int("queue", 64, "admission queue depth (jobs beyond it are rejected with 429)")
		workers       = flag.Int("workers", 0, "solve workers (0 = GOMAXPROCS)")
		dataDir       = flag.String("data-dir", "", "durable job store directory (empty = in-memory; history dies with the process)")
		fsync         = flag.Bool("fsync", false, "fsync the journal after every record (survives power loss, much slower)")
		snapshotEvery = flag.Int("snapshot-every", store.DefaultSnapshotEvery,
			"journal records between snapshot compactions")
		follow = flag.String("follow", "",
			"standby mode: tail this primary's replication feed (requires -data-dir)")
		pullEvery = flag.Duration("pull-every", 250*time.Millisecond,
			"standby mode: feed tail cadence once caught up (a lagging standby pulls continuously)")
		route = flag.String("route", "",
			"router mode: comma-separated backend base URLs (e.g. http://b1:8080,http://b2:8080); shard i is backend i+1")
		standbys = flag.String("standbys", "",
			"router mode: comma-separated standby URLs paired positionally with -route (empty slots allowed)")
		routeConfig = flag.String("route-config", "",
			"router mode: JSON membership file ([{\"primary\": ..., \"standby\": ...}, ...]); reloaded on SIGHUP")
		probeEvery = flag.Duration("probe-every", 2*time.Second,
			"router mode: cadence of the backend health re-probe loop")
		failAfter = flag.Int("fail-after", 3,
			"router mode: consecutive failed probes before a backend counts as down")
		promoteAfter = flag.Duration("promote-after", 10*time.Second,
			"router mode: grace period a primary stays down before its standby is promoted")
		submitTimeout = flag.Duration("submit-timeout", 15*time.Second,
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
	// A job's garbage (machine build, solve, result encoding) dwarfs what
	// the daemon keeps between jobs, so at the default GOGC=100 the
	// collector runs every few jobs and its cycles show up in tail latency.
	// Doubling the headroom halves them. An explicit GOGC still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(200)
	}
	lvl, err := tracelog.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypersolved:", err)
		os.Exit(2)
	}
	format, err := tracelog.ParseFormat(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypersolved:", err)
		os.Exit(2)
	}
	logger = tracelog.New(os.Stderr, lvl, format)
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}
	if *route != "" || *routeConfig != "" {
		err = runRouter(*addr, routerOptions{
			route:         *route,
			standbys:      *standbys,
			configFile:    *routeConfig,
			probeEvery:    *probeEvery,
			failAfter:     *failAfter,
			promoteAfter:  *promoteAfter,
			submitTimeout: *submitTimeout,
			dataDir:       *dataDir,
		})
	} else {
		err = runServe(*addr, *queue, *workers, *dataDir, *fsync, *snapshotEvery, *follow, *pullEvery)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypersolved:", err)
		os.Exit(1)
	}
}

func runServe(addr string, queue, workers int, dataDir string, fsync bool, snapshotEvery int, follow string, pullEvery time.Duration) error {
	cfg := service.Config{QueueDepth: queue, Workers: workers}
	if dataDir == "" {
		if follow != "" {
			return errors.New("-follow requires -data-dir: a standby replicates into a durable store")
		}
		svc := service.New(cfg)
		depth, pool := svc.Queue()
		logger.Info("listening",
			tracelog.A("mode", "serve"), tracelog.A("addr", addr),
			tracelog.A("queue_depth", depth), tracelog.A("workers", pool),
			tracelog.A("version", version.String()))
		return serve(addr, service.NewHandler(svc), svc.Close, nil)
	}
	// Durable daemons run as replication nodes: same solve service, plus
	// the WAL feed standbys tail and the promote/demote control surface.
	node, err := service.NewNode(service.NodeConfig{
		Dir:       dataDir,
		Store:     store.FileConfig{Fsync: fsync, SnapshotEvery: snapshotEvery},
		Service:   cfg,
		Follow:    follow,
		PullEvery: pullEvery,
		Logger:    logger,
	})
	if err != nil {
		return err
	}
	st := node.Status()
	attrs := []tracelog.Attr{
		tracelog.A("mode", "durable"), tracelog.A("addr", addr),
		tracelog.A("role", st.Role), tracelog.A("store", dataDir),
		tracelog.A("epoch", st.Epoch), tracelog.A("lsn", st.LSN),
		tracelog.A("version", version.String()),
	}
	if follow != "" {
		attrs = append(attrs, tracelog.A("following", follow))
	}
	logger.Info("listening", attrs...)
	return serve(addr, node.Handler(), node.Close, nil)
}

type routerOptions struct {
	route, standbys, configFile             string
	probeEvery, promoteAfter, submitTimeout time.Duration
	failAfter                               int
	dataDir                                 string
}

func runRouter(addr string, opt routerOptions) error {
	if opt.dataDir != "" {
		return errors.New("-route and -data-dir are mutually exclusive: a router holds no job state; give each backend its own -data-dir")
	}
	if opt.route != "" && opt.configFile != "" {
		return errors.New("-route and -route-config are mutually exclusive: pick flags or the reloadable file")
	}
	cfg := cluster.Config{
		ProbeEvery:    opt.probeEvery,
		FailAfter:     opt.failAfter,
		PromoteAfter:  opt.promoteAfter,
		SubmitTimeout: opt.submitTimeout,
		Logger:        logger,
	}
	if opt.configFile != "" {
		members, err := readMembers(opt.configFile)
		if err != nil {
			return err
		}
		for _, m := range members {
			cfg.Backends = append(cfg.Backends, m.Primary)
			cfg.Standbys = append(cfg.Standbys, m.Standby)
		}
	} else {
		cfg.Backends = strings.Split(opt.route, ",")
		if opt.standbys != "" {
			cfg.Standbys = strings.Split(opt.standbys, ",")
		}
	}
	r, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	var reload func()
	if opt.configFile != "" {
		reload = func() {
			members, err := readMembers(opt.configFile)
			if err != nil {
				logger.Error("SIGHUP reload failed", tracelog.A("error", err.Error()))
				return
			}
			added, drained, err := r.ApplyMembership(members)
			if err != nil {
				logger.Error("SIGHUP reload failed", tracelog.A("error", err.Error()))
				return
			}
			logger.Info("membership reloaded",
				tracelog.A("file", opt.configFile), tracelog.A("shards", r.Shards()),
				tracelog.A("added", fmt.Sprint(added)), tracelog.A("drained", fmt.Sprint(drained)))
		}
	}
	logger.Info("routing",
		tracelog.A("mode", "router"), tracelog.A("addr", addr),
		tracelog.A("shards", r.Shards()), tracelog.A("version", version.String()))
	return serve(addr, cluster.NewHandler(r), r.Close, reload)
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
	logger.Info("pprof listening", tracelog.A("addr", addr))
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("pprof server failed", tracelog.A("error", err.Error()))
	}
}

// readMembers parses a -route-config file: a JSON array of
// {"primary": url, "standby": url} members (standby optional).
func readMembers(path string) ([]cluster.MemberSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading route config: %w", err)
	}
	var members []cluster.MemberSpec
	if err := json.Unmarshal(data, &members); err != nil {
		return nil, fmt.Errorf("parsing route config %s: %w", path, err)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("route config %s lists no members", path)
	}
	return members, nil
}

// serve runs the HTTP loop shared by all modes: listen, and on
// SIGINT/SIGTERM drain in-flight requests before closing the service
// (node or router) behind the handler. A non-nil reload hook runs on
// every SIGHUP (router membership refresh). Every request passes through
// the tracelog middleware: X-Request-Id is stamped/echoed, the inbound
// traceparent lands in the request context, and one access-log line is
// emitted per request.
func serve(addr string, handler http.Handler, closeBackend func(), reload func()) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           tracelog.Middleware(logger, handler),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if reload != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				reload()
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		closeBackend()
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	closeBackend()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
