package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded by the harness around a call into a layer,
// or grafted in from a daemon's own job timeline. Times are milliseconds
// since the run's epoch. Spans of one job share Job; Parent is the ID of the
// span that caused this one (0 for a job's root span).
type span struct {
	ID     int     `json:"id"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// tracing-off state: every method is a no-op, so the timed run pays nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a span and returns its ID for use as a parent.
func (r *recorder) add(job int, name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Job: job, Name: name, Parent: parent,
		Start: ms(start.Sub(r.epoch)), End: ms(end.Sub(r.epoch)),
	})
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (concurrent work) or stick out of the parent (clock skew between
// processes); the covered part is the union of their intervals clipped to
// the parent, so self time is never negative and never double-subtracts.
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = max(s.End-s.Start, 0) - covered
	}
	return self
}

// layerRow aggregates every span of one name.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimeTable sums duration and self time by span name, largest self time
// first: "where did a job's time go" as one table.
func selfTimeTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := make(map[string]*layerRow)
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.TotalMs += max(s.End-s.Start, 0)
		row.SelfMs += self[s.ID]
	}
	rows := make([]layerRow, 0, len(byName))
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// traceFile is what a traced run leaves on disk.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Jobs     int        `json:"jobs"`
	SelfTime []layerRow `json:"self_time_by_name"`
	Spans    []span     `json:"spans"`
}

func (r *recorder) write(dir, workload string, seed int64, jobs int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	doc := traceFile{Workload: workload, Seed: seed, Jobs: jobs, SelfTime: selfTimeTable(r.spans), Spans: r.spans}
	r.mu.Unlock()
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
