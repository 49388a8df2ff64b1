package offload

import (
	"slices"
	"strings"
	"sync"
)

// KV is the authoritative-store surface the deployments are written
// against: the in-memory Store and the WAL-backed durable.Store both
// satisfy it, so a deployment gains crash durability by construction —
// swap the store, keep the serving logic.
type KV interface {
	// Get returns the value bytes or nil.
	Get(key []byte) []byte
	// Set stores value under key.
	Set(key, value []byte)
	// Len counts the keys; a cold resync sizes the table it loads them
	// into by it.
	Len() int
	// Range visits every key/value pair in sorted key order
	// (deterministic resync replay). The key is handed over in a buffer
	// reused across calls, so fn copies what it keeps of it.
	Range(fn func(key, value []byte) error) error
}

// shards stripes the store's locks, as production Memcached does.
const shards = 16

// Store is the user-space server's in-memory store.
type Store struct {
	shards [shards]struct {
		mu sync.Mutex
		kv map[string][]byte
	}
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].kv = make(map[string][]byte)
	}
	return s
}

func (s *Store) shardOf(key []byte) int {
	var h uint64
	for _, b := range key {
		h = h*131 + uint64(b)
	}
	return int(h % shards)
}

// Get returns the value bytes or nil.
func (s *Store) Get(key []byte) []byte {
	sh := &s.shards[s.shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.kv[string(key)]
}

// Set stores a copy of value under key.
func (s *Store) Set(key, value []byte) {
	sh := &s.shards[s.shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.kv[string(key)] = append([]byte(nil), value...)
}

// Len counts the keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.kv)
		sh.mu.Unlock()
	}
	return n
}

// Range visits every key/value pair in sorted key order. Deterministic
// iteration matters to the supervised deployment: a reload resync replays
// the store into the fresh heap, and a stable order keeps the
// fault-injection trace reproducible across runs. It walks a view taken one
// shard lock at a time and calls fn outside every lock; Set replaces a
// value, never mutates it, so the view shares them as Get does.
func (s *Store) Range(fn func(key, value []byte) error) error {
	type pair struct {
		key   string
		value []byte
	}
	var pairs []pair
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		pairs = slices.Grow(pairs, len(sh.kv))
		for k, v := range sh.kv {
			if v != nil { // an empty value reads as a miss, as with Get
				pairs = append(pairs, pair{k, v})
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(pairs, func(a, b pair) int { return strings.Compare(a.key, b.key) })
	var key []byte
	for _, p := range pairs {
		key = append(key[:0], p.key...)
		if err := fn(key, p.value); err != nil {
			return err
		}
	}
	return nil
}
