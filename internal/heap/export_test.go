package heap

// parked counts the recycled backings waiting for the next heap of size
// bytes.
func parked(size uint64) int {
	free.Lock()
	defer free.Unlock()
	return len(free.m[size/8])
}

// unpark empties the free list of size bytes, so a test owns what lands
// there next.
func unpark(size uint64) {
	free.Lock()
	defer free.Unlock()
	delete(free.m, size/8)
}
