package offload

import (
	"reflect"

	"kflex"
	"kflex/internal/apps/kvprog"
)

// BulkBatch is how many pairs one bulk event carries.
const BulkBatch = bulkBatch

// RunInit runs the init event for keys pairs on h, as populate does first.
func (c *Codec) RunInit(h *kflex.Handle, keys int) (kflex.Result, error) {
	cn := c.newConn()
	return c.invoke(h, initEvent{keys}, cn.ctx)
}

// RunBulk runs one bulk event carrying the pairs (keys[i], values[i]) on h.
func (c *Codec) RunBulk(h *kflex.Handle, keys, values [][]byte) (kflex.Result, error) {
	ev := &bulkEvent{n: len(keys)}
	for i := range keys {
		ev.imgs = kvprog.AppendImage(ev.imgs, keys[i], values[i])
	}
	cn := c.newConn()
	return c.invoke(h, ev, cn.ctx)
}

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
