package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// httpCase is one SAT instance as it travels over the wire.
type httpCase struct {
	libCase
	body []byte
}

// jobDoc is the part of a Job document the benchmark reads. It is decoded
// from the wire with the benchmark's own struct, as any client written
// against docs/API.md would, so the daemon's Go types can change freely.
type jobDoc struct {
	ID     json.RawMessage `json:"id"` // 17 on a daemon, "s2-17" behind a router
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result *struct {
		OK  bool `json:"ok"`
		SAT *struct {
			Status     string `json:"status"`
			Assignment []int  `json:"assignment"`
		} `json:"sat"`
		ComputationTime int64 `json:"computation_time"`
		Stats           struct {
			Steps          int64 `json:"steps"`
			TotalSent      int64 `json:"total_sent"`
			TotalDelivered int64 `json:"total_delivered"`
		} `json:"stats"`
	} `json:"result"`
}

func (d jobDoc) id() string { return strings.Trim(string(d.ID), `"`) }

// daemonSpan is one span of GET /v1/jobs/{id}/trace.
type daemonSpan struct {
	ID         int       `json:"id"`
	Parent     int       `json:"parent"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	DurationMs float64   `json:"duration_ms"`
}

// apiClient is one generator's connection to the system under test. Its
// requests run one after another, so they share one keep-alive connection.
type apiClient struct {
	ctx  context.Context
	base string
	hc   *http.Client
}

func newAPIClient(ctx context.Context, base string) *apiClient {
	return &apiClient{ctx: ctx, base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2},
		Timeout:   60 * time.Second, // a uf20 job takes milliseconds; this only bounds a hang
	}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// submit POSTs one job. A 429 is not retried: the workloads are sized so the
// admission queue never fills, and a rejection is a failure to surface.
func (c *apiClient) submit(body []byte) (string, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var doc jobDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	if doc.id() == "" {
		return "", fmt.Errorf("submit: response carries no job id")
	}
	return doc.id(), nil
}

// waitEnd follows the job's SSE stream to its terminal `end` frame and
// returns the terminal state.
func (c *apiClient) waitEnd(id string) (string, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best-effort detail for the error text
		return "", fmt.Errorf("events: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	end := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			end = true
		case end && strings.HasPrefix(line, "data:"):
			var p struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data:")), &p); err != nil {
				return "", fmt.Errorf("events: end frame: %w", err)
			}
			// Drain to EOF so the connection goes back to the pool.
			_, _ = io.Copy(io.Discard, resp.Body)
			return p.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	return "", fmt.Errorf("events: stream closed without an end frame")
}

func (c *apiClient) getJob(id string) (jobDoc, int, error) {
	body, err := httpGet(c.ctx, c.hc, c.base+"/v1/jobs/"+id)
	if err != nil {
		return jobDoc{}, 0, err
	}
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return jobDoc{}, 0, fmt.Errorf("job %s: %w", id, err)
	}
	return doc, len(body), nil
}

func (c *apiClient) getTrace(id string) ([]daemonSpan, error) {
	var doc struct {
		Spans []daemonSpan `json:"spans"`
	}
	err := getJSON(c.ctx, c.hc, c.base+"/v1/jobs/"+id+"/trace", &doc)
	return doc.Spans, err
}

// verifyJob is the correctness gate for one fetched job: terminal state
// done, root completed, verdict matching the oracle, and the witness
// re-verified client-side against the formula the benchmark generated — the
// daemon's own "verified" flag is not trusted.
func verifyJob(c httpCase, doc jobDoc) error {
	if doc.State != "done" {
		return fmt.Errorf("terminal state %q: %s", doc.State, doc.Error)
	}
	if doc.Result == nil || !doc.Result.OK || doc.Result.SAT == nil {
		return fmt.Errorf("done without a completed SAT result")
	}
	a, err := assignmentFromLits(c.formula.NumVars, doc.Result.SAT.Assignment)
	if err != nil {
		return err
	}
	_, err = checkSAT(*c.formula, c.wantSAT, doc.Result.SAT.Status, a)
	return err
}

// daemonSpanLayer names the module that owns each span of the daemon's job
// timeline.
func daemonSpanLayer(name string) string {
	if name == "journal" {
		return "store.journal"
	}
	return "service." + name
}

// runHTTPUnit submits a batch back-to-back, then collects each job in
// order: wait for its end frame, fetch it, verify it. A job's latency runs
// from its POST being sent to its result being verified. With a recorder the
// daemon's own timeline is fetched once the job is complete — outside the
// job's latency — and grafted under the harness's spans.
func runHTTPUnit(c *apiClient, cases []httpCase, unit, batch int, rec *recorder, jobBase int) []outcome {
	outs := make([]outcome, batch)
	for i := range outs {
		o := &outs[i]
		o.unit = unit*batch + i
		o.start = time.Now()
		o.id, o.err = c.submit(cases[o.unit].body)
		o.submitRTT = time.Since(o.start)
	}
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			o.latency = o.submitRTT
			continue
		}
		job := jobBase + i
		t1 := time.Now()
		state, err := c.waitEnd(o.id)
		t2 := time.Now()
		o.eventsWait = t2.Sub(t1)
		if err != nil {
			o.err, o.latency = err, t2.Sub(o.start)
			continue
		}
		doc, n, err := c.getJob(o.id)
		t3 := time.Now()
		o.resultGet, o.resultBytes = t3.Sub(t2), n
		if err == nil && doc.State != state {
			err = fmt.Errorf("end frame said %q, job document says %q", state, doc.State)
		}
		if err == nil {
			err = verifyJob(cases[o.unit], doc)
		}
		t4 := time.Now()
		o.err, o.latency = err, t4.Sub(o.start)
		if err != nil {
			continue
		}
		r := doc.Result
		o.counts = simCounts{ComputationTime: r.ComputationTime, Sent: r.Stats.TotalSent,
			Delivered: r.Stats.TotalDelivered, Steps: r.Stats.Steps}
		if rec == nil {
			continue
		}
		// Harness spans first, then the daemon's own timeline grafted in:
		// each of its top-level spans hangs under the harness span during
		// which it began (compile and admission run inside the submit round
		// trip, queue and run mostly inside the events wait), or under the
		// job itself when the client was busy with another job of the batch.
		root := rec.add(job, "job", 0, o.start, t4)
		submitEnd := o.start.Add(o.submitRTT)
		phases := []struct {
			id         int
			start, end time.Time
		}{
			{rec.add(job, "client.submit", root, o.start, submitEnd), o.start, submitEnd},
			{rec.add(job, "client.events_wait", root, t1, t2), t1, t2},
			{rec.add(job, "client.result_get", root, t2, t3), t2, t3},
		}
		rec.add(job, "client.verify", root, t3, t4)
		spans, err := c.getTrace(o.id)
		o.traceGet = time.Since(t4)
		if err != nil {
			o.err = fmt.Errorf("trace: %w", err)
			continue
		}
		o.daemonMs = make(map[string]float64, len(spans))
		ids := make(map[int]int, len(spans))
		for _, s := range spans { // parents precede children in the daemon's timeline
			name := daemonSpanLayer(s.Name)
			o.daemonMs[name] += s.DurationMs
			parent, ok := ids[s.Parent]
			if !ok {
				parent = root
				for _, ph := range phases {
					if !s.Start.Before(ph.start) && s.Start.Before(ph.end) {
						parent = ph.id
					}
				}
			}
			ids[s.ID] = rec.add(job, name, parent, s.Start, s.End)
		}
	}
	return outs
}
