package recursion

// LiveFrames returns the number of unfinished frames, for leak diagnostics.
func (rt *Runtime) LiveFrames() int {
	n := 0
	for _, f := range rt.frames {
		if f.w != nil {
			n++
		}
	}
	return n
}
