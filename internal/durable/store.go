package durable

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Options tune one Store.
type Options struct {
	// SegmentBytes rolls the WAL to a new segment past this size
	// (default 256 KiB).
	SegmentBytes int64
	// SyncEvery fsyncs the log every n appends (default 1: every
	// acknowledged write is crash-durable). Larger values trade the
	// crash-durability window for append throughput.
	SyncEvery int
	// SnapshotEvery writes a snapshot (and compacts the log) every n
	// appends; 0 leaves snapshotting to explicit Snapshot calls.
	SnapshotEvery int
	// TailRecords bounds the in-memory tail of recent encoded records
	// kept for incremental resync and replication (default 8192). A
	// consumer further behind than the tail must fall back to a full
	// copy.
	TailRecords int
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 256 << 10
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	if o.TailRecords <= 0 {
		o.TailRecords = 8192
	}
}

// Metrics counts what the durability layer did; chaos tests assert them.
type Metrics struct {
	// Appends is the number of mutations appended to the WAL; AppendErrs
	// counts appends the device failed (the store keeps serving from
	// memory — storage is a fault domain, not a single point of failure —
	// but the mutation is not crash-durable).
	Appends, AppendErrs uint64
	// Syncs counts the fsyncs the flush policy (SyncEvery, Sync, Close)
	// issued; SyncErrs counts the ones that failed, plus failed fsyncs of
	// a segment a roll was about to close (which put the roll off).
	Syncs, SyncErrs uint64
	// Snapshots / SnapshotErrs count snapshot publications and failures;
	// CompactedSegs counts WAL segments removed by compaction.
	Snapshots, SnapshotErrs uint64
	CompactedSegs           uint64
}

// RecoveryInfo reports what Open reconstructed — the crash-consistency
// evidence chaos tests assert over.
type RecoveryInfo struct {
	// SnapshotLoaded is the snapshot file recovery started from ("" when
	// it replayed the log from genesis); SnapshotSeq is its sequence.
	SnapshotLoaded string
	SnapshotSeq    uint64
	// CorruptSnapshots counts newer snapshots that failed validation and
	// were skipped (recovery fell back to an older one or to the log).
	CorruptSnapshots int
	// Replayed is the number of CRC-verified log records applied on top
	// of the snapshot.
	Replayed uint64
	// TornBytes is the size of the discarded log tail (0 on a clean
	// shutdown); DiscardedSegments counts whole segments dropped beyond a
	// tear.
	TornBytes         int64
	DiscardedSegments int
	// Keys is the recovered key count; Seq the recovered sequence.
	Keys int
	Seq  uint64
}

// Store is a durable key/value store: an in-memory map backed by a
// checksummed segmented WAL and snapshots. It is the authoritative store
// behind the supervised memcached/redis front ends — every acknowledged
// write lands here before the caller sees success, a reloaded extension
// generation resyncs from here, and a crashed process recovers the full
// map from the device.
//
// All methods are safe for concurrent use. Get/Set/Range deliberately
// match the signatures of the app stores they stand behind.
type Store struct {
	mu   sync.Mutex
	kv   map[string][]byte
	seq  uint64
	opts Options

	dir Dir
	log *wal

	// tail is a ring of the most recent encoded records for RecordsSince —
	// the replication feed. It grows one slot at a
	// time to opts.TailRecords and then wraps: tailHead indexes the oldest
	// record, whose sequence is tailStart, and a new record overwrites it
	// in place, reusing the slot's buffer. A slot is also where a record
	// is encoded and what the WAL appends from, so a mutation is encoded
	// once and copied once (into the device).
	tail      [][]byte
	tailHead  int
	tailStart uint64

	// logBroken is set when an append failed: the lost record leaves a
	// sequence gap, so later appends would be unreachable at replay. The
	// log stays suspended until a snapshot re-bases recovery past the gap.
	logBroken bool

	sinceSync uint64
	sinceSnap uint64
	metrics   Metrics
}

// Open recovers (or initializes) a Store from dir: it loads the newest
// CRC-valid snapshot, replays the CRC-verified prefix of the log on top,
// discards any torn tail, and binds the WAL for subsequent appends.
func Open(dir Dir, opts Options) (*Store, RecoveryInfo, error) {
	opts.defaults()
	s := &Store{kv: make(map[string][]byte), opts: opts, dir: dir}
	var info RecoveryInfo

	// Crash during a snapshot publication leaves the temp file around;
	// it was never renamed, so it is dead weight.
	dir.Remove(snapTmp)

	// Newest valid snapshot wins; corrupt ones fall back to older (and a
	// longer replay), never to silent acceptance.
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, info, err
	}
	for _, name := range snaps {
		seq, kv, err := readSnapshot(dir, name)
		if err != nil {
			info.CorruptSnapshots++
			continue
		}
		s.kv, s.seq = kv, seq
		info.SnapshotLoaded, info.SnapshotSeq = name, seq
		break
	}

	res, err := replay(dir, s.seq, func(r Record) { s.apply(r) })
	if err != nil {
		return nil, info, err
	}
	// A snapshot newer than the whole log is legal (the log was fully
	// compacted away); replay then applied nothing and seq stays at the
	// snapshot's. Otherwise seq advances to the last verified record.
	if res.lastSeq > s.seq {
		s.seq = res.lastSeq
	}
	info.Replayed = res.replayed
	info.TornBytes = res.tornBytes
	info.DiscardedSegments = res.discarded
	info.Keys = len(s.kv)
	info.Seq = s.seq

	log, err := openWAL(dir, opts.SegmentBytes)
	if err != nil {
		return nil, info, err
	}
	s.log = log
	s.tailStart = s.seq + 1
	return s, info, nil
}

// apply mutates the in-memory map with one record (no logging).
func (s *Store) apply(r Record) {
	switch r.Op {
	case OpSet:
		s.kv[string(r.Key)] = append([]byte(nil), r.Value...)
	case OpDelete:
		delete(s.kv, string(r.Key))
	}
}

// mutate applies and logs one mutation.
func (s *Store) mutate(op byte, key, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := Record{Seq: s.seq + 1, Op: op, Key: key, Value: value}
	slot := s.nextSlot()
	*slot = EncodeRecord((*slot)[:0], rec)
	s.seq = rec.Seq
	s.apply(rec)
	s.logRecord(*slot, rec.Seq)
	if s.opts.SnapshotEvery > 0 {
		s.sinceSnap++
		if s.sinceSnap >= uint64(s.opts.SnapshotEvery) {
			s.sinceSnap = 0
			s.snapshotLocked()
		}
	}
}

// logRecord makes one already-applied mutation crash-durable. The store
// keeps serving from memory whatever the device does — storage is a
// fault domain, not a single point of failure — so device errors are
// counted and contained, never propagated to the caller:
//
//   - A failed or short append loses the record and with it the log's
//     strict seq+1 chain; every later append would sit beyond the gap,
//     unreachable at replay (the CRC scan treats a gap as a tear). The
//     log is therefore suspended and the store re-bases: a snapshot of
//     the full in-memory state (which includes the lost mutation) moves
//     the recovery floor past the gap, and only then does logging resume.
//   - A failed fsync leaves a valid prefix — no gap — so logging
//     continues; the unsynced tail is simply what a crash may lose.
func (s *Store) logRecord(enc []byte, seq uint64) {
	if !s.logBroken {
		s.metrics.Appends++
		if err := s.log.append(enc, seq); err != nil {
			s.metrics.AppendErrs++
			s.logBroken = true
		}
	}
	if s.logBroken {
		if s.snapshotLocked() == nil {
			s.logBroken = false
		}
		return
	}
	s.sinceSync++
	if s.sinceSync >= uint64(s.opts.SyncEvery) {
		s.metrics.Syncs++
		if err := s.log.sync(); err != nil {
			s.metrics.SyncErrs++
		}
		s.sinceSync = 0
	}
}

// nextSlot makes room in the tail ring for the record with sequence
// seq+1 and returns the slot to encode it into. Until the ring holds
// TailRecords records it grows by one slot; from then on the oldest
// record's slot is handed out again, stale bytes and all (the caller
// overwrites from [:0]), so the steady state allocates nothing. An empty
// tail always has tailStart == seq+1, which is what makes the first
// record land at tailStart.
func (s *Store) nextSlot() *[]byte {
	if len(s.tail) < s.opts.TailRecords {
		s.tail = append(s.tail, nil)
		return &s.tail[len(s.tail)-1]
	}
	slot := &s.tail[s.tailHead]
	s.tailHead++
	if s.tailHead == len(s.tail) {
		s.tailHead = 0
	}
	s.tailStart++
	return slot
}

// Set stores value under key, write-ahead logged.
func (s *Store) Set(key, value []byte) { s.mutate(OpSet, key, value) }

// Delete removes key, write-ahead logged.
func (s *Store) Delete(key []byte) { s.mutate(OpDelete, key, nil) }

// Get returns the value bytes or nil.
func (s *Store) Get(key []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kv[string(key)]
}

// Len returns the key count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.kv)
}

// Seq returns the sequence number of the last applied mutation.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Range visits every key/value pair in sorted key order (deterministic
// iteration keeps resync replay — and with it the fault-injection trace —
// reproducible across runs). It iterates over a point-in-time view taken
// under one lock acquisition and calls fn outside the lock, so fn may
// call back into the store; stored values are replaced, never mutated,
// so the view shares them exactly as Get does.
func (s *Store) Range(fn func(key, value []byte) error) error {
	type pair struct {
		key   string
		value []byte
	}
	s.mu.Lock()
	pairs := make([]pair, 0, len(s.kv))
	for k, v := range s.kv {
		if v != nil { // an empty value reads as a miss, as with Get
			pairs = append(pairs, pair{k, v})
		}
	}
	s.mu.Unlock()
	slices.SortFunc(pairs, func(a, b pair) int { return strings.Compare(a.key, b.key) })
	for _, p := range pairs {
		if err := fn([]byte(p.key), p.value); err != nil {
			return err
		}
	}
	return nil
}

// RecordsSince returns copies of the encoded records with sequence
// numbers in (from, Seq], oldest first — the log-shipping feed a replica
// follower tails, its only consumer. ok is false when from has already been
// pruned from the tail: the follower is too far behind and must take a full
// copy instead.
func (s *Store) RecordsSince(from uint64) (recs [][]byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from >= s.seq {
		return nil, true
	}
	if len(s.tail) == 0 || from+1 < s.tailStart {
		return nil, false
	}
	// Copies, not the slots themselves: a slot is overwritten in place
	// TailRecords mutations later, while the consumer may still be
	// shipping what it was handed.
	skip := int(from + 1 - s.tailStart)
	recs = make([][]byte, 0, len(s.tail)-skip)
	for i := skip; i < len(s.tail); i++ {
		recs = append(recs, append([]byte(nil), s.tail[(s.tailHead+i)%len(s.tail)]...))
	}
	return recs, true
}

// Snapshot publishes a snapshot at the current sequence and compacts
// fully-covered WAL segments.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	// The snapshot covers every mutation up to seq; sync the log first so
	// the no-lost-prefix invariant survives a crash between the two.
	s.log.sync()
	name, err := writeSnapshot(s.dir, s.seq, s.kv)
	if err != nil {
		s.metrics.SnapshotErrs++
		return err
	}
	// Read-back verification before anything is compacted away: a write
	// the device silently corrupted (reported success, flipped bytes)
	// must not become the only copy of the data. An unreadable snapshot
	// is removed and the log — still intact — remains authoritative.
	if _, _, verr := readSnapshot(s.dir, name); verr != nil {
		s.dir.Remove(name)
		s.dir.SyncDir()
		s.metrics.SnapshotErrs++
		return fmt.Errorf("durable: snapshot failed read-back verification: %w", verr)
	}
	s.metrics.Snapshots++
	// Drop older snapshots and covered segments.
	if snaps, err := listSnapshots(s.dir); err == nil {
		for _, name := range snaps {
			if seq, ok := parseSnapName(name); ok && seq < s.seq {
				s.dir.Remove(name)
			}
		}
		s.dir.SyncDir()
	}
	s.metrics.CompactedSegs += uint64(compact(s.dir, s.seq, s.log.curName))
	return nil
}

// Sync forces an fsync of the log (e.g. before an orderly shutdown).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.Syncs++
	if err := s.log.sync(); err != nil {
		s.metrics.SyncErrs++
		return err
	}
	return nil
}

// Metrics returns a copy of the durability counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	m.SyncErrs += s.log.rollSyncErrs
	return m
}

// Hash returns a deterministic digest of the full contents and sequence —
// the bit-identical-convergence check the failover chaos suite asserts.
func (s *Store) Hash() uint64 {
	s.mu.Lock()
	keys := make([]string, 0, len(s.kv))
	for k := range s.kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	for _, k := range keys {
		mix([]byte(k))
		mix(s.kv[k])
	}
	s.mu.Unlock()
	return h
}

// ApplyReplicated applies one shipped, encoded record on a follower: the
// record is CRC-verified and must be the follower's next sequence number
// (gap detection); it is then write-ahead logged locally and applied, so
// a promoted follower has its own durable history.
func (s *Store) ApplyReplicated(enc []byte) error {
	rec, _, err := DecodeRecord(enc)
	if err != nil {
		return fmt.Errorf("durable: replicated record rejected: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Seq != s.seq+1 {
		return fmt.Errorf("durable: replication gap: have seq %d, shipped record is %d", s.seq, rec.Seq)
	}
	slot := s.nextSlot()
	*slot = append((*slot)[:0], enc...)
	s.seq = rec.Seq
	s.apply(rec)
	s.logRecord(*slot, rec.Seq)
	return nil
}

// CopyFrom replaces this store's contents with a full copy of src at
// src's sequence — the bootstrap (or too-far-behind) path of a replica
// follower. The copy is logged as a local snapshot, not as records.
func (s *Store) CopyFrom(src *Store) error {
	src.mu.Lock()
	kv := make(map[string][]byte, len(src.kv))
	for k, v := range src.kv {
		kv[k] = append([]byte(nil), v...)
	}
	seq := src.seq
	src.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.kv, s.seq = kv, seq
	s.tail, s.tailHead, s.tailStart = s.tail[:0], 0, seq+1
	return s.snapshotLocked()
}

// Close syncs and closes the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.Syncs++
	if err := s.log.sync(); err != nil {
		s.metrics.SyncErrs++
	}
	s.log.close()
	return nil
}
