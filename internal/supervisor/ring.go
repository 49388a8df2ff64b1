package supervisor

// ring is a fixed-capacity history window. Long chaos and soak runs push
// thousands of transitions and audit reports; an append-only slice would
// grow without bound, so the supervisor retains only the newest capacity
// entries and keeps lifetime totals in Stats. Pushes are O(1) and
// allocation-free after the buffer fills; snapshot returns the retained
// window oldest-first, so two identically seeded runs still compare equal
// entry for entry.
type ring[T any] struct {
	buf   []T
	total uint64
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, 0, capacity)}
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = v
	}
	r.total++
}

// snapshot returns the retained entries oldest-first (a copy).
func (r *ring[T]) snapshot() []T {
	n := len(r.buf)
	out := make([]T, 0, n)
	if r.total > uint64(n) {
		// Buffer has wrapped: the oldest retained entry sits at the write
		// cursor.
		start := int(r.total % uint64(n))
		out = append(out, r.buf[start:]...)
		out = append(out, r.buf[:start]...)
		return out
	}
	return append(out, r.buf...)
}
