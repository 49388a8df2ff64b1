package durable

// TableCounts reports how many times the store's table doubled its index,
// rebuilt its arena, and dropped a dead entry, since Open.
func (s *Store) TableCounts() (grows, rebuilds, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.grows, s.tab.rebuilds, s.tab.dropped
}
