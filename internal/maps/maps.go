// Package maps implements the one eBPF map type the evaluation's BMC
// baseline depends on, an LRU hash (§2.2 of the paper: eBPF extensions
// cannot define data structures and must use kernel-provided maps).
//
// Concurrency model: the map serializes access internally; Lookup returns a
// copy of the value (pinned into the extension's address space for the
// invocation), so concurrent extensions never race on value memory.
// Mutations persist through Update, matching a copy-out/copy-in map
// discipline. This differs from in-kernel eBPF (which returns a pointer
// into map storage and leaves synchronization to the extension) but keeps
// the simulation race-free; the paper's point — that map-only data
// structures are rigid compared to KFlex heaps — is unaffected.
package maps

import (
	"container/list"
	"fmt"
	"sync"
)

// LRU is the BPF_MAP_TYPE_LRU_HASH analogue: at capacity, the least
// recently used entry is evicted. BMC-style look-aside caches use this
// shape (BMC itself preallocates an array; either way the cache cannot
// grow dynamically, which is the paper's point about SET offload).
type LRU struct {
	mu        sync.Mutex
	keySize   int
	valueSize int
	cap       int
	kv        map[string]*list.Element
	order     *list.List // front = most recent
}

type lruEntry struct {
	key string
	val []byte
}

// NewLRU creates an LRU hash map with the given capacity.
func NewLRU(capacity, keySize, valueSize int) (*LRU, error) {
	if capacity <= 0 || keySize <= 0 || valueSize <= 0 {
		return nil, fmt.Errorf("maps: lru needs positive geometry")
	}
	return &LRU{
		keySize:   keySize,
		valueSize: valueSize,
		cap:       capacity,
		kv:        make(map[string]*list.Element, capacity),
		order:     list.New(),
	}, nil
}

// KeySize returns the key size in bytes.
func (l *LRU) KeySize() int { return l.keySize }

// ValueSize returns the value size in bytes.
func (l *LRU) ValueSize() int { return l.valueSize }

// Len returns the current entry count.
func (l *LRU) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.kv)
}

// Lookup returns a copy of the value (refreshing recency), or nil.
func (l *LRU) Lookup(key []byte) []byte {
	k := string(key[:l.keySize])
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.kv[k]
	if !ok {
		return nil
	}
	l.order.MoveToFront(el)
	out := make([]byte, l.valueSize)
	copy(out, el.Value.(*lruEntry).val)
	return out
}

// Update inserts or refreshes the value, evicting the LRU entry at capacity.
func (l *LRU) Update(key, value []byte) error {
	if len(value) != l.valueSize {
		return fmt.Errorf("maps: value size %d != %d", len(value), l.valueSize)
	}
	k := string(key[:l.keySize])
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.kv[k]; ok {
		copy(el.Value.(*lruEntry).val, value)
		l.order.MoveToFront(el)
		return nil
	}
	if len(l.kv) >= l.cap {
		back := l.order.Back()
		if back != nil {
			l.order.Remove(back)
			delete(l.kv, back.Value.(*lruEntry).key)
		}
	}
	l.kv[k] = l.order.PushFront(&lruEntry{key: k, val: append([]byte(nil), value...)})
	return nil
}

// Delete removes the key.
func (l *LRU) Delete(key []byte) bool {
	k := string(key[:l.keySize])
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.kv[k]
	if !ok {
		return false
	}
	l.order.Remove(el)
	delete(l.kv, k)
	return true
}
