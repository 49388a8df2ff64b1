package offload

// WrapStore interposes a fake on the authoritative store.
func (s *Supervised) WrapStore(wrap func(KV) KV) { s.store = wrap(s.store) }

// Dirty reports whether key is in the dirty set.
func (s *Supervised) Dirty(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.dirty[string(key)]
	return ok
}
