package service

import (
	"encoding/json"

	"hypersolve/internal/store"
	"hypersolve/internal/tracelog"
)

// JobTrace is the wire shape of GET /v1/jobs/{id}/trace: the job's
// identity and state plus its span timeline. For a live (queued or
// running) job the timeline is snapshotted from the in-flight trace;
// for a terminal job it is decoded from the record the store persisted,
// which is also what a standby or a restarted daemon serves — traces
// survive crashes and failovers exactly as far as the journal does.
type JobTrace struct {
	JobID JobID `json:"job_id"`
	State State `json:"state"`
	tracelog.Timeline
}

// jobTraceFromRecord decodes a persisted record's timeline into the API
// shape. A record without a timeline (pre-tracing history) yields an
// empty span list, not an error — the job exists, it just predates
// tracing.
func jobTraceFromRecord(sj store.Job) JobTrace {
	jt := JobTrace{JobID: JobID{Seq: sj.ID}, State: sj.State}
	_ = json.Unmarshal(sj.Annotation(annotationTrace), &jt.Timeline)
	return jt
}

// Trace returns the span timeline of one job: the live trace while the
// job is queued or running, the persisted one once it is terminal.
func (s *Service) Trace(id int64) (JobTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sj, ok := s.store.Get(id)
	if !ok {
		return JobTrace{}, false
	}
	if jr := s.runs[id]; jr != nil {
		return JobTrace{JobID: JobID{Seq: id}, State: sj.State, Timeline: jr.trace.Timeline()}, true
	}
	return jobTraceFromRecord(sj), true
}
