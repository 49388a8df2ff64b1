package offload

import "reflect"

// StreamBuilt reports whether the request factory that sys (a pointer to a
// deployment struct) holds has built its generator. The factory is found by
// type: the memcached and redis deployments keep theirs unexported.
func StreamBuilt(sys any) bool {
	v := reflect.ValueOf(sys).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == reflect.TypeFor[*ReqFactory]() {
			return (*ReqFactory)(f.UnsafePointer()).gen != nil
		}
	}
	panic("offload: " + v.Type().String() + " holds no request factory")
}

// WrapStore interposes a fake on the authoritative store.
func (s *Supervised) WrapStore(wrap func(KV) KV) { s.store = wrap(s.store) }

// Dirty reports whether key is in the dirty set.
func (s *Supervised) Dirty(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.dirty[string(key)]
	return ok
}
