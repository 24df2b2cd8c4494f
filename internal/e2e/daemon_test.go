// Package e2e drives real hypersolved processes over HTTP and through
// hyperctl: every case builds the binaries from this checkout into a
// temporary directory, owns the lifetime of the processes it starts, and
// checks what a client can see. Cases run under the ordinary test command
// and are skipped by -short.
package e2e

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

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

// startDaemon launches hypersolved on a free loopback port with the given
// flags and waits until it answers /healthz. The process is killed when the
// test ends unless the case already stopped it.
func startDaemon(t *testing.T, flags ...string) *daemon {
	t.Helper()
	bin := binary(t, "hypersolved")
	// Reserve a port by binding it, then hand it to the daemon.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, flags...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{Client: &service.Client{Base: "http://" + addr}, cmd: cmd}
	t.Cleanup(d.kill)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		if _, err := d.Health(ctx); err == nil {
			return d
		}
		select {
		case <-ctx.Done():
			t.Fatalf("hypersolved on %s never became healthy", addr)
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
