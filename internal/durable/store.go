package durable

import (
	"fmt"
	"slices"
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
}

// Every store snapshots, and so compacts its log, in the mutation whose
// append brings the log bytes written since the last snapshot attempt to
// max(minCompact, compactRatio × the last published snapshot's size), as
// Redis's auto-aof-rewrite-percentage does. The log then holds at most a
// fixed multiple of the live data, and a snapshot costs O(1) amortized per
// byte appended.
const (
	// minCompact keeps a small store from snapshotting every few writes,
	// and is above the 7.67 MB of log a 64 Ki-pair preload writes, so no
	// deployment's set-up compacts.
	minCompact = 16 << 20
	// compactRatio bounds the log at 8× the live data: a snapshot rewrites
	// every live pair, so a larger store waits for proportionally more log.
	compactRatio = 8
)

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 256 << 10
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
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
	// a segment a roll was about to close (which put the roll off) and of
	// the log a snapshot syncs before it is written.
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
	// Keys is the recovered key count (Store.Seq is the recovered
	// sequence).
	Keys int
}

// Store is a durable key/value store: an in-memory table (table.go) backed
// by a checksummed segmented WAL and snapshots. It is the authoritative store
// behind the supervised memcached/redis front ends — every acknowledged
// write lands here before the caller sees success, a reloaded extension
// generation resyncs from here, and a crashed process recovers the full
// map from the device.
//
// All methods are safe for concurrent use. Get/Set/Range deliberately
// match the signatures of the app stores they stand behind.
type Store struct {
	mu   sync.Mutex
	tab  *table
	seq  uint64
	opts Options

	dir Dir
	log *wal

	// enc is the buffer every mutation is encoded into and the WAL appends
	// from, reused under mu (the device copies what it is handed), so a
	// mutation is encoded once and copied once.
	enc []byte

	// logBroken is set when an append failed: the lost record leaves a
	// sequence gap, so later appends would be unreachable at replay. The
	// log stays suspended until a snapshot re-bases recovery past the gap.
	logBroken bool

	sinceSync uint64
	// sinceSnap counts the log bytes appended since the last snapshot
	// attempt (after Open: the suffix it replayed); snapBytes is the size
	// of the last published snapshot. Together they drive compaction.
	sinceSnap, snapBytes int64
	metrics              Metrics
}

// Open recovers (or initializes) a Store from dir: it loads the newest
// CRC-valid snapshot, replays the CRC-verified prefix of the log on top,
// discards any torn tail, and binds the WAL for subsequent appends.
func Open(dir Dir, opts Options) (*Store, RecoveryInfo, error) {
	opts.defaults()
	s := &Store{tab: newTable(), opts: opts, dir: dir}
	var info RecoveryInfo

	// Crash during a snapshot publication leaves the temp file around;
	// it was never renamed, so it is dead weight.
	dir.Remove(snapTmp)

	// Newest valid snapshot wins; corrupt ones fall back to older (and a
	// longer replay), never to silent acceptance.
	snaps, err := listFiles(dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, info, err
	}
	for _, snap := range slices.Backward(snaps) {
		tab := newTable()
		seq, size, err := readSnapshot(dir, snap.name, tab.set)
		if err != nil {
			info.CorruptSnapshots++
			continue
		}
		s.tab, s.seq, s.snapBytes = tab, seq, size
		info.SnapshotLoaded, info.SnapshotSeq = snap.name, seq
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
	s.sinceSnap = res.bytes
	info.Replayed = res.replayed
	info.TornBytes = res.tornBytes
	info.DiscardedSegments = res.discarded
	info.Keys = s.tab.live

	log, err := openWAL(dir, opts.SegmentBytes)
	if err != nil {
		return nil, info, err
	}
	s.log = log
	return s, info, nil
}

// apply mutates the in-memory table with one record (no logging).
func (s *Store) apply(r Record) {
	switch r.Op {
	case OpSet:
		s.tab.set(r.Key, r.Value)
	case OpDelete:
		s.tab.del(r.Key)
	}
}

// mutate applies and logs one mutation.
func (s *Store) mutate(op byte, key, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := Record{Seq: s.seq + 1, Op: op, Key: key, Value: value}
	s.enc = EncodeRecord(s.enc[:0], rec)
	s.seq = rec.Seq
	s.apply(rec)
	s.logRecord(s.enc, rec.Seq)
	if s.sinceSnap >= max(minCompact, compactRatio*s.snapBytes) {
		s.snapshotLocked()
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
	s.sinceSnap += int64(len(enc))
	s.sinceSync++
	if s.sinceSync >= uint64(s.opts.SyncEvery) {
		s.metrics.Syncs++
		if err := s.log.sync(); err != nil {
			s.metrics.SyncErrs++
		}
		s.sinceSync = 0
	}
}

// Set stores value under key, write-ahead logged.
func (s *Store) Set(key, value []byte) { s.mutate(OpSet, key, value) }

// Delete removes key, write-ahead logged.
func (s *Store) Delete(key []byte) { s.mutate(OpDelete, key, nil) }

// Get returns the value bytes or nil.
func (s *Store) Get(key []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.get(key)
}

// Len returns the key count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.live
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
// call back into the store; stored values are never written over, so the
// view shares them exactly as Get does. The key is handed over in a buffer
// reused across calls: fn copies what it keeps of it.
func (s *Store) Range(fn func(key, value []byte) error) error {
	v := s.sortedView()
	var key []byte
	for i := range v.ents {
		e := &v.ents[i]
		val := e.value(v.arena)
		if val == nil { // an empty value reads as a miss, as with Get
			continue
		}
		key = append(key[:0], e.key(v.arena)...)
		if err := fn(key, val); err != nil {
			return err
		}
	}
	return nil
}

// sortedView is the sorted view Range and Hash walk: the live entries
// copied under the lock, sorted by key outside it. snapshotLocked sorts its
// view under the lock it already holds.
func (s *Store) sortedView() view {
	s.mu.Lock()
	v := s.tab.snapshot()
	s.mu.Unlock()
	v.sort()
	return v
}

// Snapshot publishes a snapshot at the current sequence and compacts
// fully-covered WAL segments.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	// A failed attempt is retried at the next crossing, not on every
	// append: a device that keeps failing costs no more snapshots than a
	// healthy one.
	s.sinceSnap = 0
	// The snapshot covers every mutation up to seq; sync the log first so
	// the no-lost-prefix invariant survives a crash between the two.
	if err := s.log.sync(); err != nil {
		s.metrics.SyncErrs++
	}
	v := s.tab.snapshot()
	v.sort()
	name, err := writeSnapshot(s.dir, s.seq, v)
	if err != nil {
		s.metrics.SnapshotErrs++
		return err
	}
	// Read-back verification before anything is compacted away: a write
	// the device silently corrupted (reported success, flipped bytes)
	// must not become the only copy of the data. An unreadable snapshot
	// is removed and the log — still intact — remains authoritative.
	_, size, verr := readSnapshot(s.dir, name, func(key, value []byte) {})
	if verr != nil {
		s.dir.Remove(name)
		s.dir.SyncDir()
		s.metrics.SnapshotErrs++
		return fmt.Errorf("durable: snapshot failed read-back verification: %w", verr)
	}
	s.metrics.Snapshots++
	s.snapBytes = size
	// Drop older snapshots and covered segments.
	if snaps, err := listFiles(s.dir, snapPrefix, snapSuffix); err == nil {
		for _, snap := range snaps {
			if snap.seq < s.seq {
				s.dir.Remove(snap.name)
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

// Hash returns a deterministic digest of the full contents — what the
// determinism suites compare across two runs of one seed.
func (s *Store) Hash() uint64 {
	v := s.sortedView()
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
	for i := range v.ents {
		mix(v.ents[i].key(v.arena))
		mix(v.ents[i].value(v.arena))
	}
	return h
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
