// Package e2e drives real hypersolved processes over HTTP and through
// hyperctl: every case builds the binaries from this checkout into a
// temporary directory, owns the lifetime of the processes it starts, and
// checks what a client can see. Cases run under the ordinary test command
// and are skipped by -short.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hypersolve/internal/sat"
	"hypersolve/internal/service"
)

// stampedVersion is the build version the binaries are stamped with, so
// cases can see it come back through -version and /healthz.
const stampedVersion = "e2e"

// builtDir is the directory binDir built into, "" until a case needed it.
var builtDir string

// binDir builds cmd/hypersolved and cmd/hyperctl once per test binary and
// returns the directory holding them.
var binDir = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "hypersolve-e2e-")
	if err != nil {
		return "", err
	}
	builtDir = dir
	for _, name := range []string{"hypersolved", "hyperctl"} {
		cmd := exec.Command("go", "build", "-ldflags", "-X hypersolve/internal/version.Version="+stampedVersion,
			"-o", filepath.Join(dir, name), "hypersolve/cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("building %s: %v\n%s", name, err, out)
		}
	}
	return dir, nil
})

// binary returns the path of one built command.
func binary(t *testing.T, name string) string {
	t.Helper()
	dir, err := binDir()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, name)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtDir != "" {
		os.RemoveAll(builtDir)
	}
	os.Exit(code)
}

// daemon is one running hypersolved and an HTTP client pointed at it.
type daemon struct {
	*service.Client
	cmd *exec.Cmd
}

// startDaemon launches hypersolved on a loopback port of its own choosing
// with the given flags, reads the address it bound from its listening (or
// routing) log record and waits until it answers /healthz. The daemon logs
// JSON at info into stderr; when stderr is nil, into a buffer of its own
// that goes to the test log if the case fails. The process is killed when
// the test ends unless the case already stopped it.
func startDaemon(t *testing.T, stderr *logBuffer, flags ...string) *daemon {
	t.Helper()
	if stderr == nil {
		stderr = &logBuffer{}
		t.Cleanup(func() {
			if t.Failed() {
				t.Logf("hypersolved %v log:\n%s", flags, stderr.String())
			}
		})
	}
	cmd := exec.Command(binary(t, "hypersolved"),
		append([]string{"-addr", "127.0.0.1:0", "-log-format", "json", "-log-level", "info"}, flags...)...)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(d.kill)
	rec := stderr.awaitRecord(t, "listening or routing", func(rec map[string]any) bool {
		return rec["msg"] == "listening" || rec["msg"] == "routing"
	})
	d.Client = &service.Client{Base: fmt.Sprintf("http://%v", rec["addr"])}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		if _, err := d.Health(ctx); err == nil {
			return d
		}
		select {
		case <-ctx.Done():
			t.Fatalf("hypersolved on %s never became healthy", d.Base)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// kill SIGKILLs the daemon — no shutdown hook runs — and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone when a case killed it itself
	_ = d.cmd.Wait()
}

// awaitState polls a job until it is in the wanted state, failing the test
// if it reaches a terminal state first.
func (d *daemon) awaitState(ctx context.Context, t *testing.T, id service.JobID, want service.State) {
	t.Helper()
	for {
		job, err := d.Get(ctx, id)
		if err != nil || (job.State != want && job.State.Terminal()) {
			t.Fatalf("job %v is %q (err %v), want %q", id, job.State, err, want)
		}
		if job.State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// logBuffer collects a daemon's stderr: exec copies the process's output
// into it from its own goroutine while the test reads.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// awaitRecord waits for a JSON log line for which match holds and returns
// it decoded, failing the test after five seconds without one.
func (b *logBuffer) awaitRecord(t *testing.T, what string, match func(rec map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		text := b.String()
		for _, line := range strings.Split(text, "\n") {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && match(rec) {
				return rec
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no log record %s in:\n%s", what, text)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// uf20CNF renders a satisfiable 20-variable random 3-SAT instance in DIMACS.
func uf20CNF(t *testing.T) string {
	t.Helper()
	suite, err := sat.GenerateSuite(sat.UF20Params(7))
	if err != nil {
		t.Fatal(err)
	}
	var cnf strings.Builder
	if err := sat.WriteDIMACS(&cnf, suite[0]); err != nil {
		t.Fatal(err)
	}
	return cnf.String()
}
