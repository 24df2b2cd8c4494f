package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one spawned hypersolved process.
type daemon struct {
	role string // "daemon", "router", "shard1", "shard2", "standby1"
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// fleet is the system under test of an HTTP workload: every process of it,
// the URL clients talk to, and a context that is cancelled the moment any
// process dies unasked, so outstanding jobs fail instead of hanging.
type fleet struct {
	dir     string
	entry   string // what clients submit to: the daemon, or the router
	daemons []*daemon
	workers int // solve workers across the fleet's shards

	ctx      context.Context
	cancel   context.CancelCauseFunc
	mu       sync.Mutex
	stopping bool
}

// liveFleets is every fleet with processes still running, so that a signal
// handler can stop them all.
var liveFleets = struct {
	sync.Mutex
	m map[*fleet]struct{}
}{m: map[*fleet]struct{}{}}

func stopAllFleets() {
	liveFleets.Lock()
	fleets := make([]*fleet, 0, len(liveFleets.m))
	for f := range liveFleets.m {
		fleets = append(fleets, f)
	}
	liveFleets.Unlock()
	for _, f := range fleets {
		f.stop()
	}
}

func (f *fleet) byRole(prefix string) []*daemon {
	var out []*daemon
	for _, d := range f.daemons {
		if strings.HasPrefix(d.role, prefix) {
			out = append(out, d)
		}
	}
	return out
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it; a collision in that gap makes the
// daemon exit, which startFleet reports as a set-up failure.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts one hypersolved with its stderr in <dir>/<role>.log. Each
// child leads its own process group and is SIGKILLed by the kernel if the
// benchmark itself dies, so no run leaves a daemon behind.
func (f *fleet) spawn(bin, role string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(f.dir, role+".log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	d := &daemon{role: role, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	f.daemons = append(f.daemons, d)
	go func() {
		err := cmd.Wait()
		f.mu.Lock()
		stopping := f.stopping
		f.mu.Unlock()
		if !stopping {
			f.cancel(fmt.Errorf("%s (pid %d) died mid-run: %v; see %s", role, cmd.Process.Pid, err, logFile.Name()))
		}
		close(d.done)
	}()
	return d, nil
}

// stop kills every process group, waits for each process to be reaped and
// removes the fleet's directory — unless a process died unasked, in which
// case its log is the evidence.
func (f *fleet) stop() {
	died := f.ctx.Err() != nil
	f.mu.Lock()
	f.stopping = true
	f.mu.Unlock()
	for _, d := range f.daemons {
		_ = syscall.Kill(-d.pid(), syscall.SIGKILL) // already-exited groups report ESRCH
	}
	for _, d := range f.daemons {
		<-d.done
	}
	f.cancel(errors.New("fleet stopped"))
	liveFleets.Lock()
	delete(liveFleets.m, f)
	liveFleets.Unlock()
	if !died {
		_ = os.RemoveAll(f.dir) // scratch under the build dir; a leftover is harmless
	}
}

// startFleet boots the system under test for an HTTP workload and returns
// once it is ready to take traffic. Readiness is polled, never slept for.
//
//	single: one `hypersolved -workers 2 -queue 64`, memory store
//	fleet:  router + 2 shards (-data-dir -fsync -workers 1) + a standby
//	        following shard 1
func startFleet(bin, tmpRoot string, sharded bool) (f *fleet, err error) {
	dir, err := os.MkdirTemp(tmpRoot, "fleet-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	f = &fleet{dir: dir, ctx: ctx, cancel: cancel}
	liveFleets.Lock()
	liveFleets.m[f] = struct{}{}
	liveFleets.Unlock()
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	if !sharded {
		d, err := f.spawn(bin, "daemon", "-workers", "2", "-queue", "64")
		if err != nil {
			return nil, err
		}
		f.entry, f.workers = d.url, 2
		return f, f.waitHealthy(d)
	}
	var shards []*daemon
	for i := 1; i <= 2; i++ {
		d, err := f.spawn(bin, fmt.Sprintf("shard%d", i),
			"-data-dir", filepath.Join(dir, fmt.Sprintf("shard%d", i)), "-fsync", "-workers", "1")
		if err != nil {
			return nil, err
		}
		shards = append(shards, d)
	}
	standby, err := f.spawn(bin, "standby1",
		"-data-dir", filepath.Join(dir, "standby1"), "-fsync", "-follow", shards[0].url)
	if err != nil {
		return nil, err
	}
	for _, d := range append(shards, standby) {
		if err := f.waitHealthy(d); err != nil {
			return nil, err
		}
	}
	router, err := f.spawn(bin, "router",
		"-route", shards[0].url+","+shards[1].url, "-standbys", standby.url+",")
	if err != nil {
		return nil, err
	}
	f.entry, f.workers = router.url, 2
	if err := f.waitHealthy(router); err != nil {
		return nil, err
	}
	return f, f.waitClusterReady(router, standby)
}

// readyTimeout bounds every readiness poll; a daemon that is not up by then
// is not coming up.
const readyTimeout = 20 * time.Second

func (f *fleet) poll(what string, ready func() bool) error {
	deadline := time.Now().Add(readyTimeout)
	for !ready() {
		if err := context.Cause(f.ctx); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (f *fleet) waitHealthy(d *daemon) error {
	return f.poll(d.role+" /healthz", func() bool {
		var h struct{ Status string }
		return getJSON(f.ctx, http.DefaultClient, d.url+"/healthz", &h) == nil && h.Status != ""
	})
}

// waitClusterReady holds until the router sees every shard and the standby,
// and the standby has caught up with its primary.
func (f *fleet) waitClusterReady(router, standby *daemon) error {
	return f.poll("router /v1/cluster all-up and standby lag 0", func() bool {
		var h struct {
			Status   string
			Backends []struct {
				Healthy        bool
				Standby        string
				StandbyHealthy bool `json:"standby_healthy"`
			}
		}
		if getJSON(f.ctx, http.DefaultClient, router.url+"/v1/cluster", &h) != nil || h.Status != "ok" {
			return false
		}
		for _, b := range h.Backends {
			if !b.Healthy || (b.Standby != "" && !b.StandbyHealthy) {
				return false
			}
		}
		st, err := replicationStatus(f.ctx, standby.url)
		return err == nil && st.Role == "standby" && st.Lag == 0 && st.LastError == ""
	})
}

// replStatus is the part of GET /v1/replication/status the benchmark reads.
type replStatus struct {
	Role      string `json:"role"`
	LSN       int64  `json:"lsn"`
	Lag       int64  `json:"lag"`
	LastError string `json:"last_error"`
}

func replicationStatus(ctx context.Context, base string) (replStatus, error) {
	var st replStatus
	err := getJSON(ctx, http.DefaultClient, base+"/v1/replication/status", &st)
	return st, err
}

// cpuMs sums cumulative CPU over the given daemons.
func cpuMs(ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		v, err := procCPUMs(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.role, err)
		}
		total += v
	}
	return total, nil
}

// peakRSSMB sums peak resident set over the given daemons.
func peakRSSMB(ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		v, err := procPeakRSSMB(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.role, err)
		}
		total += v
	}
	return total, nil
}

// httpGet fetches a URL and returns the body of a 200 response.
func httpGet(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	body, err := httpGet(ctx, hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// scrapeMetrics fetches and parses one daemon's (or the router's merged)
// GET /metrics.
func scrapeMetrics(ctx context.Context, base string) (scrape, error) {
	body, err := httpGet(ctx, http.DefaultClient, base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body))
}
