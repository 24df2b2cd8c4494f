package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hypersolve/internal/service"
)

// hyperctl runs the built client against d and returns its stdout; a
// non-zero exit comes back as an *exec.ExitError with stderr in err's text.
func (d *daemon) hyperctl(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(binary(t, "hyperctl"), append([]string{"-addr", d.Base}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return string(out), errors.Join(err, errors.New(stderr.String()))
	}
	return string(out), nil
}

// hyperctlJob runs a hyperctl subcommand that prints one job document.
func (d *daemon) hyperctlJob(t *testing.T, args ...string) service.Job {
	t.Helper()
	out, err := d.hyperctl(t, args...)
	if err != nil {
		t.Fatalf("hyperctl %v: %v", args, err)
	}
	var job service.Job
	if err := json.Unmarshal([]byte(out), &job); err != nil {
		t.Fatalf("hyperctl %v printed %q: %v", args, out, err)
	}
	return job
}

// writeFile writes content into the test's temporary directory.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServiceSmoke drives one version-stamped daemon through hyperctl and
// plain HTTP the way an operator would. Each guard is its own subtest, in
// order: the metrics guard counts the jobs the earlier ones submitted.
func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	d := startDaemon(t, nil, "-queue", "8", "-workers", "2")
	cnfPath := writeFile(t, "uf20.cnf", uf20CNF(t))

	t.Run("version", func(t *testing.T) {
		out, err := exec.Command(binary(t, "hypersolved"), "-version").Output()
		if err != nil || !strings.Contains(string(out), stampedVersion+" (") {
			t.Errorf("hypersolved -version = %q (%v), want the stamped %q", out, err, stampedVersion)
		}
		h, err := d.Health(ctx)
		if err != nil || !strings.HasPrefix(h.Version, stampedVersion+" (") {
			t.Errorf("/healthz version %q (%v), want the stamped %q", h.Version, err, stampedVersion)
		}
	})

	var solo service.Job
	t.Run("sat-submit-wait", func(t *testing.T) {
		solo = d.hyperctlJob(t, "submit", "-kind", "sat", "-cnf", cnfPath, "-mapper", "lbn", "-wait")
		if solo.State != service.StateDone || solo.Result == nil || solo.Result.SAT == nil ||
			solo.Result.SAT.Status != "SAT" || !solo.Result.SAT.Verified {
			t.Fatalf("uf20 job %+v, want done with a verified SAT verdict", solo)
		}
	})

	t.Run("trace", func(t *testing.T) {
		jt, err := d.Trace(ctx, solo.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(jt.TraceID) {
			t.Errorf("trace id %q, want 32 hex digits", jt.TraceID)
		}
		for _, name := range []string{"queue", "run"} {
			found := false
			for _, sp := range jt.Spans {
				if sp.Name == name && sp.DurationMs > 0 {
					found = true
				}
			}
			if !found {
				t.Errorf("trace has no %s span with a positive duration: %+v", name, jt.Spans)
			}
		}
		out, err := d.hyperctl(t, "trace", solo.ID.String())
		if err != nil || !strings.Contains(out, "queue") || !strings.Contains(out, "run") {
			t.Errorf("hyperctl trace = %q (%v), want a waterfall with queue and run", out, err)
		}
	})

	t.Run("portfolio", func(t *testing.T) {
		race := d.hyperctlJob(t, "submit", "-kind", "sat", "-cnf", cnfPath, "-portfolio", "rr,lbn,weighted", "-wait")
		if race.State != service.StateDone || race.Result == nil || race.Result.SAT == nil || race.Result.SAT.Status != "SAT" {
			t.Fatalf("race job %+v, want done with a SAT verdict", race)
		}
		if want := soloWinner(t, race.Spec); race.Winner != want {
			t.Errorf("race winner %q, want %q, the fewest steps solo", race.Winner, want)
		}
		cancelled := 0
		for _, a := range race.Attempts {
			if a.State == service.StateCancelled {
				cancelled++
			}
		}
		if len(race.Attempts) != 3 || cancelled != 2 {
			t.Errorf("attempts %+v, want three with two cancelled", race.Attempts)
		}
		jt, err := d.Trace(ctx, race.ID)
		if err != nil {
			t.Fatal(err)
		}
		won := false
		for _, sp := range jt.Spans {
			if sp.Name == "attempt" && sp.Attrs["winner"] == true {
				won = true
			}
		}
		if !won {
			t.Errorf("race trace has no winning attempt span: %+v", jt.Spans)
		}
	})

	t.Run("request-id", func(t *testing.T) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.Base+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "e2e-smoke-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-Id"); got != "e2e-smoke-1" {
			t.Errorf("X-Request-Id echoed as %q, want e2e-smoke-1", got)
		}
	})

	t.Run("spec-unknown-field", func(t *testing.T) {
		before, err := d.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out, err := d.hyperctl(t, "submit", "-spec", writeFile(t, "typo.json", `{"kind":"sat","mapepr":"lbn"}`))
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(err.Error(), "mapepr") {
			t.Errorf("hyperctl submit -spec with a typo: stdout %q, err %v; want exit 1 naming mapepr", out, err)
		}
		if after, err := d.List(ctx); err != nil || len(after) != len(before) {
			t.Errorf("%d jobs after the refused spec (err %v), %d before", len(after), err, len(before))
		}
	})

	t.Run("sse-cancel", func(t *testing.T) {
		// The daemon's progress observer walks idle link-latency gaps step
		// by step, so this job runs ~130 s unless cancelled.
		slow := d.hyperctlJob(t, "submit", "-spec", writeFile(t, "slow.json",
			`{"kind":"sum","n":300,"topology":"ring:4","link":{"link_latency":50000000},"max_steps":1099511627776}`))
		body, err := d.OpenEvents(ctx, slow.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer body.Close()
		var events strings.Builder
		lines := bufio.NewScanner(body)
		for lines.Scan() {
			events.WriteString(lines.Text() + "\n")
			if lines.Text() == "event: progress" {
				break
			}
		}
		if _, err := d.hyperctl(t, "cancel", slow.ID.String()); err != nil {
			t.Fatal(err)
		}
		for lines.Scan() {
			events.WriteString(lines.Text() + "\n")
		}
		for _, want := range []string{"event: progress", "event: end", `"state":"cancelled"`} {
			if !strings.Contains(events.String(), want) {
				t.Errorf("event stream lacks %q:\n%s", want, events.String())
			}
		}
	})

	t.Run("metrics", func(t *testing.T) {
		text, err := d.RawMetrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Three jobs: the solo SAT job, the race and the cancelled slow
		// job. The race starts 1-3 attempts, depending on how many losers
		// were cancelled before reaching a worker; its two losers and the
		// slow job count as cancelled attempts whether or not they started.
		for _, want := range []string{
			`(?m)^# TYPE hypersolve_jobs_submitted_total counter$`,
			`(?m)^hypersolve_jobs_submitted_total 3$`,
			`(?m)^hypersolve_jobs_finished_total\{state="done"\} 2$`,
			`(?m)^hypersolve_jobs_finished_total\{state="cancelled"\} 1$`,
			`(?m)^hypersolve_attempts_started_total [3-5]$`,
			`(?m)^hypersolve_attempts_cancelled_total 3$`,
			`(?m)^hypersolve_portfolio_wins_total\{strategy="(rr|lbn|weighted)"\} 1$`,
			`(?m)^# TYPE hypersolve_solve_duration_seconds histogram$`,
			`(?m)^hypersolve_build_info\{commit="`,
		} {
			if !regexp.MustCompile(want).Match(text) {
				t.Errorf("/metrics has no line matching %s", want)
			}
		}
	})
}

// TestLogFlags checks -log-format and -log-level at the binary: JSON at
// info (as startDaemon passes them) writes a parseable listening record
// that names the bound address, and a value neither flag knows is a usage
// error (exit status 2) before anything listens.
func TestLogFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	var stderr logBuffer
	startDaemon(t, &stderr)
	rec := stderr.awaitRecord(t, "listening", func(rec map[string]any) bool { return rec["msg"] == "listening" })
	if rec["level"] != "INFO" || rec["mode"] != "serve" || !strings.HasPrefix(fmt.Sprint(rec["version"]), stampedVersion+" (") {
		t.Errorf("listening record %v, want level INFO, mode serve and the stamped version", rec)
	}
	// The daemon was started on port 0: the record names the port it bound.
	if _, port, err := net.SplitHostPort(fmt.Sprint(rec["addr"])); err != nil || port == "0" {
		t.Errorf("listening record addr %v, want the bound address, not port 0", rec["addr"])
	}

	for _, flags := range [][]string{{"-log-level", "loud"}, {"-log-format", "xml"}} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, binary(t, "hypersolved"),
			append([]string{"-addr", "127.0.0.1:0"}, flags...)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("hypersolved %v: %v, output %q; want exit status 2", flags, err, out)
		}
	}
}

// TestUsageErrors: a flag that a command does not know, or that the chosen
// mode would ignore, is a usage error (exit status 2) that names the flag,
// before anything listens or is sent; so is a hyperctl command line that
// names no request (a missing or malformed argument, an unknown verb). A router's membership is set by -route
// and -standbys at start and changed through POST /v1/cluster/backends;
// there is no membership file, so -route-config is unknown.
func TestUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon")
	}
	spec := writeFile(t, "spec.json", `{"kind":"queens","n":6}`)
	for _, tc := range []struct {
		cmd, names string
		args       []string
	}{
		{"hypersolved", "-route-config", []string{"-route-config", "x"}},
		{"hypersolved", "-fsync", []string{"-fsync"}},
		{"hypersolved", "-snapshot-every", []string{"-snapshot-every", "16"}},
		{"hypersolved", "-pull-every", []string{"-data-dir", t.TempDir(), "-pull-every", "1s"}},
		{"hypersolved", "-workers", []string{"-route", "http://127.0.0.1:1", "-workers", "2"}},
		{"hypersolved", "-data-dir", []string{"-route", "http://127.0.0.1:1", "-data-dir", t.TempDir()}},
		{"hypersolved", "-submit-timeout", []string{"-submit-timeout", "1s"}},
		{"hyperctl", "-kind", []string{"submit", "-spec", spec, "-kind", "sat"}},
		{"hyperctl", "-primary", []string{"cluster", "add-backend"}},
		{"hyperctl", "cluster drain <shard>", []string{"cluster", "drain"}},
		{"hyperctl", "shard must be a number", []string{"cluster", "undrain", "x"}},
		{"hyperctl", "cluster remove <shard>", []string{"cluster", "remove", "1", "2"}},
		{"hyperctl", `unknown cluster verb "grow"`, []string{"cluster", "grow"}},
		{"hyperctl", `unknown subcommand "frobnicate"`, []string{"frobnicate"}},
		{"hyperctl", "hyperctl wait <id>", []string{"wait"}},
		{"hyperctl", "hyperctl cancel <id>", []string{"cancel", "1", "2"}},
		{"hyperctl", "hyperctl trace <id>", []string{"trace"}},
		{"hyperctl", `bad job id "x"`, []string{"status", "x"}},
	} {
		args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
		if tc.cmd == "hyperctl" {
			args[1] = "http://127.0.0.1:1"
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, binary(t, tc.cmd), args...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), tc.names) {
			t.Errorf("%s %v: %v, output %q; want exit status 2 naming %s", tc.cmd, args, err, out, tc.names)
		}
	}
}
