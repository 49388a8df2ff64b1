package maps

import (
	"encoding/binary"
	"testing"
)

func key32(i uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, i)
	return b
}

func TestLRUEviction(t *testing.T) {
	l, err := NewLRU(3, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]byte, 8)
	for i := uint32(1); i <= 3; i++ {
		if err := l.Update(key32(i), v); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 1 so key 2 is the LRU, then insert key 4.
	if l.Lookup(key32(1)) == nil {
		t.Fatal("lookup failed")
	}
	if err := l.Update(key32(4), v); err != nil {
		t.Fatal(err)
	}
	if l.Lookup(key32(2)) != nil {
		t.Fatal("LRU entry not evicted")
	}
	if l.Lookup(key32(1)) == nil || l.Lookup(key32(3)) == nil || l.Lookup(key32(4)) == nil {
		t.Fatal("wrong entry evicted")
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if !l.Delete(key32(4)) || l.Delete(key32(4)) {
		t.Fatal("delete semantics wrong")
	}
}
