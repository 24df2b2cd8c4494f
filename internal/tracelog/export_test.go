package tracelog

// ID returns the trace's 32-hex trace ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}
