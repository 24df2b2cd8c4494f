// Package ringbuf provides a power-of-two ring buffer used as the queue
// primitive of the simulation stack: layer-1 message queues and layer-2
// process mailboxes. Compared with the append-and-reslice queues it
// replaces, a ring never copy-compacts, reuses its backing array across
// push/pop cycles, and zeroes exactly one slot per pop (to release payload
// references for the garbage collector).
package ringbuf

// Ring is a FIFO queue over a power-of-two circular buffer. The zero value
// is an empty queue ready for use. Ring is not safe for concurrent use.
type Ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // number of queued elements
}

const minCap = 8

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v to the back of the queue, growing the buffer (by doubling,
// so capacity stays a power of two) when full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the front element. The vacated slot is zeroed so
// the buffer does not pin payload references.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// Peek returns the front element without removing it.
func (r *Ring[T]) Peek() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	return r.buf[r.head], true
}

// At returns the i-th element from the front (0 = front). It panics when i
// is out of range, mirroring slice indexing.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("ringbuf: index out of range")
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *Ring[T]) grow() {
	newCap := len(r.buf) * 2
	if newCap < minCap {
		newCap = minCap
	}
	buf := make([]T, newCap)
	// Unroll the old ring into the front of the new buffer.
	if r.n > 0 {
		tail := r.head + r.n
		if tail > len(r.buf) {
			tail = len(r.buf)
		}
		k := copy(buf, r.buf[r.head:tail])
		if k < r.n {
			copy(buf[k:], r.buf[:r.n-k])
		}
	}
	r.buf = buf
	r.head = 0
}
