package store

import "encoding/json"

// Before annotations were generic the store named two of them: a journal
// or feed record with op "trace" or "attempts" carried its value in a field
// of the same name, and a snapshot job carried both as fields. The old name
// is the annotation key; only this file knows either.
type legacySidecars struct {
	Trace    json.RawMessage `json:"trace,omitempty"`
	Attempts json.RawMessage `json:"attempts,omitempty"`
}

func (l legacySidecars) annotations() [2]Annotation {
	return [2]Annotation{{"trace", l.Trace}, {"attempts", l.Attempts}}
}

// wireRec and wireJob are rec and Job as journals, snapshots and feed pages
// hold them: today's fields with the old ones beside them, so either vintage
// decodes in one pass. Written, the old fields are always empty.
type wireRec struct {
	rec
	legacySidecars
}

type wireJob struct {
	Job
	legacySidecars
}

// modern returns the record as it would be written today: an old sidecar op
// is an annotate record.
func (w wireRec) modern() rec {
	for _, a := range w.annotations() {
		if w.Op == a.Key {
			w.Op, w.Key, w.Value = opAnnotate, a.Key, a.Value
		}
	}
	return w.rec
}

// modern returns the job as it would be written today: old sidecar fields
// are annotations, unless the job already has one under that key.
func (w wireJob) modern() Job {
	for _, a := range w.annotations() {
		if len(a.Value) > 0 && w.Annotation(a.Key) == nil {
			w.Annotations = append(w.Annotations, a)
		}
	}
	return w.Job
}
