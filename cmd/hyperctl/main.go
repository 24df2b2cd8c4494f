// Command hyperctl is the client CLI of the hypersolved solve service.
//
//	hyperctl [-addr http://localhost:8080] <subcommand> [flags]
//
// Subcommands:
//
//	submit  submit a job; -cnf FILE submits a DIMACS formula end-to-end,
//	        -spec FILE submits a raw JobSpec JSON document (with -cnf the
//	        only spec flag it takes; any other is a usage error), and
//	        -portfolio rr,lbn,weighted races the job under several mapping
//	        strategies (the fewest simulated steps wins, ties to the first
//	        listed; -portfolio auto races rr,lbn,weighted)
//	status  print one job (or all jobs with no argument)
//	list    list jobs, optionally filtered by state
//	wait    poll a job until it reaches a terminal state (backoff to 2s);
//	        -progress streams the server's SSE events instead and renders a
//	        live step/queue/rate line while the solve runs
//	cancel  cancel a queued or running job
//	trace   print a job's span timeline; default output is an ASCII
//	        waterfall (compile → admission → queue → run with durations and
//	        annotations), -json dumps the raw timeline instead
//	health  print the server's liveness report
//	cluster print a router's per-shard health report, or change membership:
//	        cluster add-backend -primary URL [-standby URL] adds a shard,
//	        cluster drain|undrain|remove <shard> manages the placement ring
//	        (remove requires a prior drain)
//	replication
//	        print a durable node's replication status (role, epoch, LSN, lag)
//
// hyperctl speaks to single daemons and cluster routers alike: job IDs are
// accepted in both wire forms (a bare sequence number like 3, or the
// shard-prefixed s2-17 a router hands out), and every subcommand passes
// them through unchanged. Submissions bounced by a full queue (HTTP 429)
// are retried with jittered exponential backoff, so batch drivers degrade
// gracefully under overload.
//
// Examples:
//
//	hyperctl submit -kind sat -cnf uf20.cnf -topo torus:14x14 -mapper lbn -wait
//	hyperctl submit -kind sat -n 20 -portfolio rr,lbn,weighted -wait
//	hyperctl submit -kind queens -n 7
//	hyperctl submit -spec job.json
//	hyperctl status 3
//	hyperctl list -state done,failed
//	hyperctl wait 3 -timeout 60s
//	hyperctl wait 3 -progress
//	hyperctl cancel 3
//	hyperctl -addr http://router:8090 wait s2-17
//	hyperctl -addr http://router:8090 cluster
//	hyperctl -addr http://router:8090 cluster add-backend -primary http://b3:8080
//	hyperctl -addr http://router:8090 cluster drain 3
//	hyperctl -addr http://b1:8080 replication
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hypersolve/internal/cluster"
	"hypersolve/internal/service"
	"hypersolve/internal/tracelog"
	"hypersolve/internal/version"
)

func main() {
	addr := flag.String("addr", envOr("HYPERSOLVED_ADDR", "http://localhost:8080"), "hypersolved base URL")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Usage = usage
	flag.Parse()
	if *showVersion {
		fmt.Println("hyperctl", version.String())
		return
	}
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	client := &service.Client{Base: *addr}
	if err := dispatch(client, flag.Arg(0), flag.Args()[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hyperctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: hyperctl [-addr URL] {submit|status|list|wait|cancel|trace|health|cluster|replication} [flags]\n")
	flag.PrintDefaults()
}

func dispatch(client *service.Client, cmd string, args []string) error {
	ctx := context.Background()
	switch cmd {
	case "submit":
		return submit(ctx, client, args)
	case "status":
		return status(ctx, client, args)
	case "list":
		return list(ctx, client, args)
	case "wait":
		return wait(ctx, client, args)
	case "cancel":
		return cancel(ctx, client, args)
	case "trace":
		return trace(ctx, client, args)
	case "health":
		h, err := client.Health(ctx)
		if err != nil {
			return err
		}
		return printJSON(h)
	case "cluster":
		return clusterCmd(ctx, client, args)
	case "replication":
		st, err := client.ReplicationStatus(ctx)
		if err != nil {
			return err
		}
		return printJSON(st)
	default:
		return fmt.Errorf("unknown subcommand %q (want submit|status|list|wait|cancel|trace|health|cluster|replication)", cmd)
	}
}

// clusterCmd serves both the fleet report (no argument) and the membership
// verbs against a router's /v1/cluster surface.
func clusterCmd(ctx context.Context, client *service.Client, args []string) error {
	if len(args) == 0 {
		var h cluster.Health
		if err := client.GetJSON(ctx, "/v1/cluster", &h); err != nil {
			return err
		}
		return printJSON(h)
	}
	verb, rest := args[0], args[1:]
	body := map[string]any{"action": verb}
	switch verb {
	case "add-backend":
		fs := flag.NewFlagSet("cluster add-backend", flag.ExitOnError)
		primary := fs.String("primary", "", "new shard's primary base URL (required)")
		standby := fs.String("standby", "", "new shard's standby base URL (optional)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *primary == "" {
			return fmt.Errorf("usage: hyperctl cluster add-backend -primary URL [-standby URL]")
		}
		body["action"] = "add"
		body["primary"] = *primary
		if *standby != "" {
			body["standby"] = *standby
		}
	case "drain", "undrain", "remove":
		if len(rest) != 1 {
			return fmt.Errorf("usage: hyperctl cluster %s <shard>", verb)
		}
		shard, err := strconv.Atoi(rest[0])
		if err != nil {
			return fmt.Errorf("shard must be a number: %w", err)
		}
		body["shard"] = shard
	default:
		return fmt.Errorf("unknown cluster verb %q (want add-backend|drain|undrain|remove, or no verb for the report)", verb)
	}
	var out json.RawMessage
	if err := client.PostJSON(ctx, "/v1/cluster/backends", body, &out); err != nil {
		return err
	}
	return printJSON(out)
}

func submit(ctx context.Context, client *service.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		kind      = fs.String("kind", "sat", "workload: sat, queens, knapsack, sum, fib, unbalanced")
		n         = fs.Int("n", 0, "task parameter (see JobSpec.N)")
		cnfPath   = fs.String("cnf", "", "DIMACS file to submit (kind sat)")
		specPath  = fs.String("spec", "", "JobSpec JSON file to submit (refuses the other spec flags; -cnf still overrides its CNF field)")
		heuristic = fs.String("heuristic", "", "sat branching heuristic: first, freq, jw, dlis")
		topo      = fs.String("topo", "", "topology spec (default torus:14x14)")
		mapper    = fs.String("mapper", "", "mapper spec (default rr)")
		portfolio = fs.String("portfolio", "", "comma-separated mapper specs to race (e.g. rr,lbn,weighted), or auto; mutually exclusive with -mapper")
		procs     = fs.Int("procs", 0, "logical processes per core")
		seed      = fs.Int64("seed", 1, "random seed")
		maxSteps  = fs.Int64("max-steps", 0, "simulation step budget (0 = default)")
		timeout   = fs.Duration("timeout", 0, "wall-clock deadline once running (0 = none)")
		series    = fs.Bool("series", false, "include the interconnect activity trace in the result")
		heatmap   = fs.Bool("heatmap", false, "include the node activity heatmap in the result")
		doWait    = fs.Bool("wait", false, "wait for the job to finish and print the final record")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath != "" {
		// The file is the whole spec: a spec flag beside it would be
		// dropped, so it is a usage error, as a flag the set does not know.
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "spec" && f.Name != "cnf" && f.Name != "wait" {
				fmt.Fprintf(os.Stderr, "hyperctl submit: -%s is ignored with -spec: the file sets the whole spec (only -cnf overrides its CNF field)\n", f.Name)
				os.Exit(2)
			}
		})
	}
	spec := service.JobSpec{
		Kind:         *kind,
		N:            *n,
		Heuristic:    *heuristic,
		Topology:     *topo,
		Mapper:       *mapper,
		ProcsPerNode: *procs,
		Seed:         *seed,
		MaxSteps:     *maxSteps,
		TimeoutMs:    timeout.Milliseconds(),
		RecordSeries: *series,
		Heatmap:      *heatmap,
	}
	for _, strat := range strings.Split(*portfolio, ",") {
		if strat = strings.TrimSpace(strat); strat != "" {
			spec.Portfolio = append(spec.Portfolio, strat)
		}
	}
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		spec, err = service.DecodeJobSpec(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	}
	if *cnfPath != "" {
		data, err := os.ReadFile(*cnfPath)
		if err != nil {
			return err
		}
		spec.CNF = string(data)
	}
	job, err := client.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if !*doWait {
		return printJSON(job)
	}
	job, err = client.Wait(ctx, job.ID, 0)
	if err != nil {
		return err
	}
	printRaceSummary(job)
	return printJSON(job)
}

// printRaceSummary writes a one-line-per-attempt portfolio verdict to
// stderr (stdout stays clean JSON): the winning strategy and each
// attempt's outcome. Solo jobs print nothing.
func printRaceSummary(job service.Job) {
	if len(job.Attempts) == 0 || !job.State.Terminal() {
		return
	}
	if job.Winner != "" {
		fmt.Fprintf(os.Stderr, "portfolio: %s won\n", job.Winner)
	} else {
		fmt.Fprintf(os.Stderr, "portfolio: no winner (job %s)\n", job.State)
	}
	for _, a := range job.Attempts {
		line := fmt.Sprintf("  %-12s %s", a.Strategy, a.State)
		if a.Steps > 0 {
			line += fmt.Sprintf(" after %d steps", a.Steps)
		}
		if !a.StartedAt.IsZero() && !a.FinishedAt.IsZero() {
			line += fmt.Sprintf(" in %s", a.FinishedAt.Sub(a.StartedAt).Round(time.Millisecond))
		}
		if a.Error != "" {
			line += " (" + a.Error + ")"
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

func status(ctx context.Context, client *service.Client, args []string) error {
	if len(args) == 0 {
		jobs, err := client.List(ctx)
		if err != nil {
			return err
		}
		return printJSON(jobs)
	}
	id, err := parseID(args[0])
	if err != nil {
		return err
	}
	job, err := client.Get(ctx, id)
	if err != nil {
		return err
	}
	printRaceSummary(job)
	return printJSON(job)
}

// list prints jobs, optionally filtered to a comma-separated set of states.
func list(ctx context.Context, client *service.Client, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	stateFlag := fs.String("state", "", "comma-separated state filter: queued,running,done,failed,cancelled")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var states []service.State
	for _, name := range strings.Split(*stateFlag, ",") {
		if name == "" {
			continue
		}
		st, err := service.ParseState(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		states = append(states, st)
	}
	jobs, err := client.List(ctx, states...)
	if err != nil {
		return err
	}
	return printJSON(jobs)
}

func wait(ctx context.Context, client *service.Client, args []string) error {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	poll := fs.Duration("poll", 100*time.Millisecond,
		"initial poll interval; each poll backs off exponentially to a 2s cap")
	timeout := fs.Duration("timeout", 0, "give up after this long (0 = wait forever)")
	progress := fs.Bool("progress", false,
		"render a live progress line from the server's SSE event stream (falls back to polling if the stream drops)")
	// Accept the id before the flags ("wait 3 -timeout 60s"), matching the
	// other subcommands; stdlib flag parsing stops at the first positional
	// argument otherwise.
	var idArg string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		idArg, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case idArg == "" && fs.NArg() == 1:
		idArg = fs.Arg(0)
	case idArg != "" && fs.NArg() == 0:
	default:
		return fmt.Errorf("usage: hyperctl wait <id> [-poll D] [-timeout D] [-progress]")
	}
	id, err := parseID(idArg)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *progress {
		switch err := watchProgress(ctx, client, id); {
		case err == nil:
			// The job is terminal; Wait returns its record on the first
			// successful poll and rides out transient blips, unlike a bare
			// Get.
			job, err := client.Wait(ctx, id, *poll)
			if err != nil {
				return err
			}
			return printJSON(job)
		case ctx.Err() != nil:
			return err
		default:
			// An old server without the events endpoint, or a stream that
			// died mid-solve: the job may still be running, so degrade to
			// the polling wait instead of failing.
			fmt.Fprintf(os.Stderr, "hyperctl: event stream unavailable (%v); falling back to polling\n", err)
		}
	}
	job, err := client.Wait(ctx, id, *poll)
	if err != nil {
		return err
	}
	printRaceSummary(job)
	return printJSON(job)
}

// watchProgress renders the SSE progress feed as a live one-line status on
// stderr (stdout stays clean JSON), returning nil once the terminal
// snapshot has arrived.
func watchProgress(ctx context.Context, client *service.Client, id service.JobID) error {
	lastLen := 0
	err := client.Watch(ctx, id, func(p service.Progress) {
		// For portfolio jobs each snapshot names the attempt that
		// published it (the winner's on the terminal snapshot).
		strat := ""
		if p.Strategy != "" {
			strat = " [" + p.Strategy + "]"
		}
		var line string
		if p.State.Terminal() {
			line = fmt.Sprintf("job %s %s%s after %d steps", id, p.State, strat, p.Step)
		} else {
			line = fmt.Sprintf("job %s %s%s: step %d · %d queued · %.0f steps/s · %.1fs",
				id, p.State, strat, p.Step, p.Queued, p.StepsPerSec, float64(p.ElapsedMs)/1000)
		}
		pad := ""
		if n := lastLen - len(line); n > 0 {
			pad = strings.Repeat(" ", n)
		}
		lastLen = len(line)
		fmt.Fprintf(os.Stderr, "\r%s%s", line, pad)
	})
	if lastLen > 0 {
		fmt.Fprintln(os.Stderr)
	}
	return err
}

func cancel(ctx context.Context, client *service.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: hyperctl cancel <id>")
	}
	id, err := parseID(args[0])
	if err != nil {
		return err
	}
	job, err := client.Cancel(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(job)
}

// trace fetches a job's span timeline and renders it as an ASCII
// waterfall: one row per span, indented under its parent, with a bar
// positioned by start offset and scaled by duration. -json dumps the raw
// timeline document instead (for piping into jq or dashboards).
func trace(ctx context.Context, client *service.Client, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the raw timeline JSON instead of the waterfall")
	// Accept "trace 3 -json" like wait does.
	var idArg string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		idArg, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case idArg == "" && fs.NArg() == 1:
		idArg = fs.Arg(0)
	case idArg != "" && fs.NArg() == 0:
	default:
		return fmt.Errorf("usage: hyperctl trace <id> [-json]")
	}
	id, err := parseID(idArg)
	if err != nil {
		return err
	}
	jt, err := client.Trace(ctx, id)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(jt)
	}
	renderWaterfall(jt)
	return nil
}

// renderWaterfall prints one row per span: an indented name, a bar whose
// offset and width are the span's position in the trace window, and the
// duration. Open spans (the job is still queued or running) get a "…"
// tail; instant spans (requeued) a "·" tick. Annotations print beneath
// their span.
func renderWaterfall(jt service.JobTrace) {
	fmt.Printf("trace %s  job %s  %s\n", jt.TraceID, jt.JobID, jt.State)
	if len(jt.Spans) == 0 {
		fmt.Println("  (no spans recorded — the job predates tracing)")
		return
	}
	// The trace window: earliest start to latest known instant.
	t0 := jt.Spans[0].Start
	tEnd := t0
	for _, sp := range jt.Spans {
		if sp.Start.Before(t0) {
			t0 = sp.Start
		}
		if sp.End.After(tEnd) {
			tEnd = sp.End
		}
		if sp.Start.After(tEnd) {
			tEnd = sp.Start
		}
	}
	window := tEnd.Sub(t0)
	const cols = 40
	nameWidth := 0
	for _, sp := range jt.Spans {
		if w := len(sp.Name) + 2*depthOf(jt.Spans, sp); w > nameWidth {
			nameWidth = w
		}
	}
	for _, sp := range jt.Spans {
		indent := strings.Repeat("  ", depthOf(jt.Spans, sp))
		name := indent + sp.Name
		start := int(float64(sp.Start.Sub(t0)) / float64(window+1) * cols)
		bar := make([]byte, cols)
		for i := range bar {
			bar[i] = ' '
		}
		var tail string
		switch {
		case !sp.End.IsZero() && sp.End.Equal(sp.Start):
			// Instant span (e.g. requeued): a single tick.
			bar[min(start, cols-1)] = '+'
			tail = fmt.Sprintf("@ +%s", fmtMs(sp.Start.Sub(t0)))
		case sp.End.IsZero():
			for i := start; i < cols; i++ {
				bar[i] = '='
			}
			tail = fmt.Sprintf("+%s … still open", fmtMs(sp.Start.Sub(t0)))
		default:
			width := int(float64(sp.End.Sub(sp.Start)) / float64(window+1) * cols)
			if width < 1 {
				width = 1
			}
			for i := start; i < start+width && i < cols; i++ {
				bar[i] = '='
			}
			tail = fmt.Sprintf("%8.3fms  +%s", sp.DurationMs, fmtMs(sp.Start.Sub(t0)))
		}
		if len(sp.Attrs) > 0 {
			var kv []string
			for k, v := range sp.Attrs {
				kv = append(kv, fmt.Sprintf("%s=%v", k, v))
			}
			sort.Strings(kv)
			tail += "  " + strings.Join(kv, " ")
		}
		fmt.Printf("  %-*s |%s| %s\n", nameWidth, name, string(bar), tail)
		for _, a := range sp.Annotations {
			fmt.Printf("  %-*s  %s· %s (+%s)\n", nameWidth, "", strings.Repeat(" ", cols/2), a.Text, fmtMs(a.At.Sub(t0)))
		}
	}
	fmt.Printf("  window: %s across %d spans\n", fmtMs(window), len(jt.Spans))
}

// depthOf computes a span's indent depth by chasing parent IDs.
func depthOf(spans []tracelog.Span, sp tracelog.Span) int {
	depth := 0
	for sp.Parent != 0 {
		found := false
		for _, p := range spans {
			if p.ID == sp.Parent {
				sp, found = p, true
				break
			}
		}
		if !found {
			break
		}
		depth++
	}
	return depth
}

func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// parseID accepts both wire forms transparently: a bare sequence number
// when talking to a single daemon, or a shard-prefixed cluster ID like
// "s2-17" when talking to a router.
func parseID(s string) (service.JobID, error) {
	return service.ParseJobID(s)
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}
