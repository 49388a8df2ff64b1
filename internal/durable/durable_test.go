package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"kflex/internal/faultinject"
)

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%04d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%04d-%04d", i, i*7)) }

func mustOpen(t *testing.T, dir Dir, opts Options) (*Store, RecoveryInfo) {
	t.Helper()
	s, info, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, info
}

// newStore opens an empty store on a device of its own, for tests that never
// look at the device.
func newStore(t *testing.T) *Store {
	t.Helper()
	s, _ := mustOpen(t, NewMemDir(nil), Options{})
	return s
}

// oracle replays a mutation history up to seq — the ground truth a
// recovered store must exactly match (the verified-prefix contract).
type oracle struct {
	ops []Record
}

func (o *oracle) set(k, v []byte) {
	o.ops = append(o.ops, Record{Op: OpSet, Key: append([]byte(nil), k...), Value: append([]byte(nil), v...)})
}

func (o *oracle) del(k []byte) {
	o.ops = append(o.ops, Record{Op: OpDelete, Key: append([]byte(nil), k...)})
}

// prefix materializes the map after the first seq mutations.
func (o *oracle) prefix(seq uint64) map[string][]byte {
	kv := make(map[string][]byte)
	for i := uint64(0); i < seq && i < uint64(len(o.ops)); i++ {
		r := o.ops[i]
		if r.Op == OpSet {
			kv[string(r.Key)] = r.Value
		} else {
			delete(kv, string(r.Key))
		}
	}
	return kv
}

// assertMatchesOracle checks the recovered store is exactly the oracle
// prefix of length store.Seq(): nothing lost below the verified prefix,
// nothing invented beyond it.
func assertMatchesOracle(t *testing.T, s *Store, o *oracle) {
	t.Helper()
	want := o.prefix(s.Seq())
	if s.Len() != len(want) {
		t.Fatalf("recovered %d keys, oracle prefix at seq %d has %d", s.Len(), s.Seq(), len(want))
	}
	for k, v := range want {
		if got := s.Get([]byte(k)); !bytes.Equal(got, v) {
			t.Fatalf("key %q: recovered %q, oracle has %q", k, got, v)
		}
	}
}

// eachDevice runs fn once per Dir implementation: the crash-modelling
// MemDir every other test uses, and OSDir over a real (temporary)
// directory — the device a deployment would open. Only tests that need
// nothing beyond the Dir interface (no Crash, no fault plan) take both.
func eachDevice(t *testing.T, fn func(t *testing.T, dir Dir)) {
	t.Run("MemDir", func(t *testing.T) { fn(t, NewMemDir(nil)) })
	t.Run("OSDir", func(t *testing.T) {
		dir, err := NewOSDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, dir)
	})
}

func TestRoundTripRecovery(t *testing.T) { eachDevice(t, testRoundTripRecovery) }

func testRoundTripRecovery(t *testing.T, dir Dir) {
	s, info := mustOpen(t, dir, Options{})
	if info.SnapshotLoaded != "" || info.Replayed != 0 {
		t.Fatalf("fresh dir recovered state: %+v", info)
	}
	var o oracle
	for i := 0; i < 100; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	for i := 0; i < 10; i++ {
		s.Delete(key(i))
		o.del(key(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, info := mustOpen(t, dir, Options{})
	if info.Replayed != 110 {
		t.Fatalf("replayed %d records, want 110", info.Replayed)
	}
	if info.TornBytes != 0 {
		t.Fatalf("clean shutdown reported %d torn bytes", info.TornBytes)
	}
	if s2.Seq() != 110 || s2.Len() != 90 {
		t.Fatalf("recovered seq=%d len=%d, want 110/90", s2.Seq(), s2.Len())
	}
	assertMatchesOracle(t, s2, &o)
	if s.Hash() != s2.Hash() {
		t.Fatal("recovered store hash differs from original")
	}
}

// TestDeviceRollSnapshotAndGarbageTail is the one path that touches every
// Dir and File method (Create, Open, List, Remove, Rename, SyncDir; Append,
// ReadAt, Size, Sync, Truncate, Close) on each device: writes that roll
// the segment several times, a snapshot (temp file, rename, compaction),
// a clean close, a recovery that must find every key and no tear — then
// garbage appended to the newest segment, which the next recovery has to
// cut off the file, not merely skip.
func TestDeviceRollSnapshotAndGarbageTail(t *testing.T) {
	eachDevice(t, func(t *testing.T, dir Dir) {
		opts := Options{SegmentBytes: 1 << 10}
		s, _ := mustOpen(t, dir, opts)
		var o oracle
		put := func(from, to int) {
			for i := from; i < to; i++ {
				s.Set(key(i), value(i))
				o.set(key(i), value(i))
			}
		}
		put(0, 120)
		if segs, err := listFiles(dir, segPrefix, segSuffix); err != nil || len(segs) < 3 {
			t.Fatalf("120 records in 1 KiB segments left %d segments (err %v), want several rolls", len(segs), err)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if m := s.Metrics(); m.Snapshots != 1 || m.CompactedSegs == 0 || m.AppendErrs+m.SyncErrs+m.SnapshotErrs != 0 {
			t.Fatalf("after snapshot: %+v", m)
		}
		put(120, 150)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		s2, info := mustOpen(t, dir, opts)
		if info.SnapshotSeq != 120 || info.Replayed != 30 || info.TornBytes != 0 || info.Keys != 150 {
			t.Fatalf("clean recovery: %+v", info)
		}
		assertMatchesOracle(t, s2, &o)
		if err := s2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		segs, err := listFiles(dir, segPrefix, segSuffix)
		if err != nil || len(segs) == 0 {
			t.Fatalf("listFiles: %v, %d segments", err, len(segs))
		}
		newest := segs[len(segs)-1].name
		garbage := []byte("not a record: a write the crash cut short")
		f, err := dir.Open(newest)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append(garbage); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		s3, info := mustOpen(t, dir, opts)
		if info.TornBytes != int64(len(garbage)) || s3.Seq() != 150 {
			t.Fatalf("recovery over a garbage tail: seq %d, %+v", s3.Seq(), info)
		}
		assertMatchesOracle(t, s3, &o)
		f, err = dir.Open(newest)
		if err != nil {
			t.Fatal(err)
		}
		if size, err := f.Size(); err != nil || size != clean {
			t.Fatalf("newest segment is %d bytes after recovery (err %v), want the tear cut back to %d", size, err, clean)
		}
		f.Close()
		// The repaired log takes appends again and recovers them.
		s3.Set(key(150), value(150))
		o.set(key(150), value(150))
		if err := s3.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s4, info := mustOpen(t, dir, opts)
		if info.TornBytes != 0 || s4.Seq() != 151 {
			t.Fatalf("recovery after repair: seq %d, %+v", s4.Seq(), info)
		}
		assertMatchesOracle(t, s4, &o)
		s4.Close()
	})
}

func TestCrashLosesOnlyUnsyncedTail(t *testing.T) {
	dir := NewMemDir(nil)
	// SyncEvery 4: the last ≤3 mutations may be volatile at crash.
	s, _ := mustOpen(t, dir, Options{SyncEvery: 4})
	var o oracle
	for i := 0; i < 10; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	// 10 appends, synced after 4 and 8: records 9..10 are volatile.
	dir.Crash()

	s2, info := mustOpen(t, dir, Options{})
	if s2.Seq() != 8 {
		t.Fatalf("recovered seq %d, want the synced prefix 8", s2.Seq())
	}
	if info.Replayed != 8 {
		t.Fatalf("replayed %d, want 8", info.Replayed)
	}
	assertMatchesOracle(t, s2, &o)
}

func TestTornTailDetectedByCRC(t *testing.T) {
	// StoreTorn makes the crash keep half of the volatile tail — cutting
	// a record in the middle. Recovery must stop at the tear, not apply
	// garbage.
	plan := faultinject.NewPlan(7)
	plan.SetRate(faultinject.StoreTorn, 1.0)
	dir := NewMemDir(plan)
	s, _ := mustOpen(t, dir, Options{SyncEvery: 100})
	var o oracle
	for i := 0; i < 20; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	plan.Enable()
	dir.Crash()
	plan.Disarm()
	dir.SetFaultPlan(nil)

	s2, info := mustOpen(t, dir, Options{})
	if info.TornBytes == 0 {
		t.Fatal("torn crash reported no torn bytes")
	}
	if s2.Seq() == 0 || s2.Seq() >= 20 {
		t.Fatalf("recovered seq %d, want a strict non-empty prefix of 20", s2.Seq())
	}
	assertMatchesOracle(t, s2, &o)
}

func TestEmptySegmentAndEmptyDir(t *testing.T) {
	dir := NewMemDir(nil)
	s, _ := mustOpen(t, dir, Options{})
	s.Set(key(1), value(1))
	s.Close()
	// A crash right after a roll leaves a magic-only segment.
	f, err := dir.Create(segName(2))
	if err != nil {
		t.Fatal(err)
	}
	f.Append([]byte(segMagic))
	f.Sync()
	f.Close()
	dir.SyncDir()

	s2, info := mustOpen(t, dir, Options{})
	if info.Replayed != 1 || s2.Seq() != 1 || info.TornBytes != 0 {
		t.Fatalf("recovery over empty segment: %+v seq=%d", info, s2.Seq())
	}

	// And a directory with nothing at all.
	s3, info := mustOpen(t, NewMemDir(nil), Options{})
	if s3.Seq() != 0 || info.Replayed != 0 || info.SnapshotLoaded != "" {
		t.Fatalf("empty dir recovered state: %+v", info)
	}
}

// TestHeaderlessSegmentNotReused: a crash right after a roll, before the
// new segment's header was synced, leaves that segment empty. Recovery must
// not append into it: records written there would have no header in front,
// and the next recovery would cut them all, synced or not.
func TestHeaderlessSegmentNotReused(t *testing.T) {
	dir := NewMemDir(nil)
	opts := Options{SyncEvery: 2, SegmentBytes: 200}
	s, _ := mustOpen(t, dir, opts)
	for i := 0; i < 5; i++ { // four records fill a segment; the fifth rolls
		s.Set(key(i), value(i))
	}
	if segs, err := listFiles(dir, segPrefix, segSuffix); err != nil || len(segs) != 2 {
		t.Fatalf("after the roll: %d segments (err %v), want 2", len(segs), err)
	}
	dir.Crash()

	s, info := mustOpen(t, dir, opts)
	if info.Replayed != 4 || s.Seq() != 4 {
		t.Fatalf("first recovery: %+v seq=%d, want the 4 synced records", info, s.Seq())
	}
	var o oracle
	for i := 0; i < 4; i++ {
		o.set(key(i), value(i))
	}
	for i := 10; i < 14; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	dir.Crash()

	s, info = mustOpen(t, dir, opts)
	if info.TornBytes != 0 || s.Seq() != 8 {
		t.Fatalf("second recovery: %+v seq=%d, want seq 8 and no tear", info, s.Seq())
	}
	assertMatchesOracle(t, s, &o)
}

func TestSnapshotNewerThanLog(t *testing.T) {
	dir := NewMemDir(nil)
	s, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 50; i++ {
		s.Set(key(i), value(i))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Close()
	// Remove every log segment: the snapshot now covers more than the
	// (empty) log. Recovery must trust the snapshot's sequence.
	names, _ := dir.List()
	for _, n := range names {
		if _, ok := parseName(n, segPrefix, segSuffix); ok {
			dir.Remove(n)
		}
	}
	dir.SyncDir()

	s2, info := mustOpen(t, dir, Options{})
	if info.SnapshotLoaded == "" || info.SnapshotSeq != 50 {
		t.Fatalf("snapshot not loaded: %+v", info)
	}
	if info.Replayed != 0 || s2.Seq() != 50 || s2.Len() != 50 {
		t.Fatalf("want pure-snapshot recovery at seq 50, got %+v seq=%d len=%d", info, s2.Seq(), s2.Len())
	}
}

func TestSnapshotPlusDeltaReplay(t *testing.T) {
	dir := NewMemDir(nil)
	s, _ := mustOpen(t, dir, Options{})
	var o oracle
	for i := 0; i < 40; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 55; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	s.Close()

	s2, info := mustOpen(t, dir, Options{})
	if info.SnapshotSeq != 40 {
		t.Fatalf("snapshot seq %d, want 40", info.SnapshotSeq)
	}
	if info.Replayed != 15 {
		t.Fatalf("replayed %d records on top of the snapshot, want the O(delta) 15", info.Replayed)
	}
	if s2.Seq() != 55 {
		t.Fatalf("seq %d, want 55", s2.Seq())
	}
	assertMatchesOracle(t, s2, &o)

	// A snapshot taken at the log head leaves nothing to replay.
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, info := mustOpen(t, dir, Options{})
	if info.SnapshotSeq != 55 || info.Replayed != 0 {
		t.Fatalf("snapshot at the log head still replayed: %+v", info)
	}
	assertMatchesOracle(t, s3, &o)
}

func TestCorruptSnapshotFallsBackToLog(t *testing.T) {
	plan := faultinject.NewPlan(11)
	dir := NewMemDir(plan)
	s, _ := mustOpen(t, dir, Options{})
	var o oracle
	for i := 0; i < 30; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	// Corrupt the snapshot write silently; read-back verification must
	// refuse to publish it (and must not compact the log away).
	plan.SetRate(faultinject.StoreCorrupt, 1.0)
	plan.Enable()
	if err := s.Snapshot(); err == nil {
		t.Fatal("corrupted snapshot passed read-back verification")
	}
	plan.Disarm()
	if m := s.Metrics(); m.SnapshotErrs != 1 || m.Snapshots != 0 {
		t.Fatalf("metrics after failed snapshot: %+v", m)
	}
	s.Close()

	s2, info := mustOpen(t, dir, Options{})
	if info.SnapshotLoaded != "" {
		t.Fatalf("loaded snapshot %q, want log-only recovery", info.SnapshotLoaded)
	}
	if info.Replayed != 30 || s2.Seq() != 30 {
		t.Fatalf("log fallback replayed %d seq=%d, want 30/30", info.Replayed, s2.Seq())
	}
	assertMatchesOracle(t, s2, &o)
}

// TestCorruptNewestSnapshotFallsBackToOlder: a crash between publishing a
// snapshot and removing the one before it leaves both on the device. When
// the newer one is then damaged, recovery counts it corrupt, loads the
// older one, and replays the log from there.
func TestCorruptNewestSnapshotFallsBackToOlder(t *testing.T) {
	dir := NewMemDir(nil)
	s, _ := mustOpen(t, dir, Options{})
	var o oracle
	for i := 0; i < 30; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	older, err := dir.Open(snapName(30))
	if err != nil {
		t.Fatal(err)
	}
	size, _ := older.Size()
	saved := make([]byte, size)
	if _, err := older.ReadAt(saved, 0); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 40; i++ {
		s.Set(key(i), value(i+100))
		o.set(key(i), value(i+100))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Put the older snapshot back, as the crash would have left it, then
	// cut the newer one in half.
	f, err := dir.Create(snapName(30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(saved); err != nil || f.Sync() != nil || dir.SyncDir() != nil {
		t.Fatalf("restoring the older snapshot: %v", err)
	}
	newer, err := dir.Open(snapName(50))
	if err != nil {
		t.Fatal(err)
	}
	size, _ = newer.Size()
	if err := newer.Truncate(size / 2); err != nil {
		t.Fatal(err)
	}

	s2, info := mustOpen(t, dir, Options{})
	if info.CorruptSnapshots != 1 || info.SnapshotLoaded != snapName(30) || info.SnapshotSeq != 30 {
		t.Fatalf("recovery = %+v, want the seq-30 snapshot after 1 corrupt one", info)
	}
	if info.Replayed != 20 || s2.Seq() != 50 {
		t.Fatalf("replayed %d seq=%d on the older snapshot, want 20/50", info.Replayed, s2.Seq())
	}
	assertMatchesOracle(t, s2, &o)
}

func TestCorruptRecordStopsReplayAtTear(t *testing.T) {
	plan := faultinject.NewPlan(3)
	dir := NewMemDir(plan)
	s, _ := mustOpen(t, dir, Options{})
	var o oracle
	for i := 0; i < 10; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	// Corrupt exactly one mid-log append; the device reports success, so
	// only replay-time CRC verification can catch it.
	plan.FailNth(faultinject.StoreCorrupt, uint64(len(EncodeRecord(nil, Record{Seq: 11, Op: OpSet, Key: key(10), Value: value(10)}))), 3)
	plan.Enable()
	for i := 10; i < 20; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	plan.Disarm()
	s.Close()

	s2, info := mustOpen(t, dir, Options{})
	if info.TornBytes == 0 {
		t.Fatal("corrupt record not reported as a tear")
	}
	if s2.Seq() != 12 {
		t.Fatalf("recovered seq %d, want 12 (verified prefix before the corrupt 13th record)", s2.Seq())
	}
	assertMatchesOracle(t, s2, &o)
}

func TestCrashDuringSnapshotKeepsPrevious(t *testing.T) {
	dir := NewMemDir(nil)
	s, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 20; i++ {
		s.Set(key(i), value(i))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 25; i++ {
		s.Set(key(i), value(i))
	}
	s.Sync()
	// Model a crash mid-snapshot: the temp file exists but was never
	// renamed into place.
	f, err := dir.Create(snapTmp)
	if err != nil {
		t.Fatal(err)
	}
	f.Append([]byte("partial snapshot garbage"))
	f.Close()
	dir.SyncDir()
	dir.Crash()

	s2, info := mustOpen(t, dir, Options{})
	if info.SnapshotSeq != 20 {
		t.Fatalf("recovered from snapshot seq %d, want the previous 20", info.SnapshotSeq)
	}
	if s2.Seq() != 25 {
		t.Fatalf("seq %d, want 25", s2.Seq())
	}
	if names, _ := dir.List(); containsName(names, snapTmp) {
		t.Fatal("stale snapshot temp file survived recovery")
	}
}

func containsName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func TestFsyncFailureCountedAndLostAtCrash(t *testing.T) {
	plan := faultinject.NewPlan(5)
	plan.SetRate(faultinject.StoreSync, 1.0)
	dir := NewMemDir(plan)
	s, _ := mustOpen(t, dir, Options{})
	var o oracle
	for i := 0; i < 5; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	s.Sync()
	plan.Enable()
	for i := 5; i < 12; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	plan.Disarm()
	m := s.Metrics()
	if m.SyncErrs != 7 {
		t.Fatalf("SyncErrs %d, want 7 (every post-enable append's fsync failed)", m.SyncErrs)
	}
	// The store keeps serving the un-durable writes from memory...
	if got := s.Get(key(11)); !bytes.Equal(got, value(11)) {
		t.Fatal("store stopped serving after fsync failures")
	}
	// ...but they do not survive a crash.
	dir.SetFaultPlan(nil)
	dir.Crash()
	s2, _ := mustOpen(t, dir, Options{})
	if s2.Seq() != 5 {
		t.Fatalf("recovered seq %d, want the fsynced prefix 5", s2.Seq())
	}
	assertMatchesOracle(t, s2, &o)
}

// TestSnapshotLogFsyncFailureCounted: the fsync of the log a snapshot
// issues before it writes is counted in SyncErrs like any other. The
// snapshot still publishes: it covers the unsynced records itself.
func TestSnapshotLogFsyncFailureCounted(t *testing.T) {
	plan := faultinject.NewPlan(17)
	dir := NewMemDir(plan)
	s, _ := mustOpen(t, dir, Options{SyncEvery: 4})
	var o oracle
	for i := 0; i < 3; i++ { // below SyncEvery: the log is still unsynced
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	before := s.Metrics()
	// The segment is the device's first file; the snapshot's is a new one.
	plan.FailNth(faultinject.StoreSync, 1, 1)
	plan.Enable()
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	plan.Disarm()
	m := s.Metrics()
	if m.SyncErrs != before.SyncErrs+1 || m.Syncs != before.Syncs || m.Snapshots != 1 {
		t.Fatalf("after a snapshot whose log fsync failed: %+v, before %+v", m, before)
	}
	dir.Crash()
	s2, info := mustOpen(t, dir, Options{})
	if info.SnapshotSeq != 3 {
		t.Fatalf("recovery: %+v, want the snapshot at seq 3", info)
	}
	assertMatchesOracle(t, s2, &o)
}

func TestAppendFailureDegradedButServing(t *testing.T) {
	plan := faultinject.NewPlan(9)
	plan.SetRate(faultinject.StoreWrite, 1.0)
	dir := NewMemDir(plan)
	s, _ := mustOpen(t, dir, Options{})
	s.Set(key(0), value(0))
	plan.Enable()
	s.Set(key(1), value(1))
	plan.Disarm()
	if m := s.Metrics(); m.AppendErrs != 1 {
		t.Fatalf("AppendErrs %d, want 1", m.AppendErrs)
	}
	// Degraded, not down: the write is visible in memory.
	if got := s.Get(key(1)); !bytes.Equal(got, value(1)) {
		t.Fatal("write lost from memory after device append failure")
	}
}

func TestShortWriteRebasesViaSnapshot(t *testing.T) {
	// A short write loses one record and breaks the log's seq chain; the
	// store must cut the torn tail AND re-base via a snapshot (covering
	// the lost mutation) before logging resumes — otherwise every later
	// record would sit beyond the gap, unreachable at replay.
	plan := faultinject.NewPlan(13)
	dir := NewMemDir(plan)
	s, _ := mustOpen(t, dir, Options{})
	var o oracle
	for i := 0; i < 5; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	enc := len(EncodeRecord(nil, Record{Seq: 6, Op: OpSet, Key: key(5), Value: value(5)}))
	plan.FailNth(faultinject.StoreShort, uint64(enc), 1)
	plan.Enable()
	s.Set(key(5), value(5)) // short write: half a record lands
	o.set(key(5), value(5))
	plan.Disarm()
	if m := s.Metrics(); m.AppendErrs != 1 || m.Snapshots != 1 {
		t.Fatalf("want 1 append error and 1 re-base snapshot, got %+v", m)
	}
	for i := 6; i < 10; i++ {
		s.Set(key(i), value(i))
		o.set(key(i), value(i))
	}
	s.Close()

	s2, info := mustOpen(t, dir, Options{})
	if info.TornBytes != 0 {
		t.Fatalf("tail cut failed: recovery still saw %d torn bytes", info.TornBytes)
	}
	if info.SnapshotSeq != 6 {
		t.Fatalf("re-base snapshot at seq %d, want 6", info.SnapshotSeq)
	}
	// Nothing is lost: the snapshot covers the dropped record, the log
	// covers everything after it.
	if s2.Seq() != 10 {
		t.Fatalf("recovered seq %d, want 10", s2.Seq())
	}
	assertMatchesOracle(t, s2, &o)
}

func TestCompactionBoundsReplay(t *testing.T) {
	dir := NewMemDir(nil)
	// Tiny segments force many rolls.
	s, _ := mustOpen(t, dir, Options{SegmentBytes: 512})
	for i := 0; i < 200; i++ {
		s.Set(key(i), value(i))
	}
	before, _ := dir.List()
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after, _ := dir.List()
	if len(after) >= len(before) {
		t.Fatalf("compaction removed nothing: %d files before, %d after", len(before), len(after))
	}
	if m := s.Metrics(); m.CompactedSegs == 0 || m.Snapshots != 1 {
		t.Fatalf("metrics after compaction: %+v", m)
	}
	for i := 200; i < 210; i++ {
		s.Set(key(i), value(i))
	}
	s.Close()

	s2, info := mustOpen(t, dir, Options{SegmentBytes: 512})
	if info.SnapshotSeq != 200 || info.Replayed != 10 {
		t.Fatalf("post-compaction recovery not O(delta): %+v", info)
	}
	if s2.Len() != 210 {
		t.Fatalf("len %d, want 210", s2.Len())
	}
}

// TestAutoSnapshotEvery: a store opened with zero Options compacts by the
// size rule alone. Overwriting a few hundred keys for four thresholds' worth
// of log publishes a snapshot exactly at each crossing (the floor binds
// first, the ratio after), also across a restart, which counts the replayed
// suffix and the loaded snapshot's size; the device never holds more than a
// threshold of log beside the last snapshot; a reopen recovers every write.
func TestAutoSnapshotEvery(t *testing.T) { eachDevice(t, testAutoSnapshotEvery) }

func testAutoSnapshotEvery(t *testing.T, dir Dir) {
	// 300 keys of 7 KiB values: a snapshot (2.15 MB) times compactRatio
	// passes minCompact, so the second and later crossings follow the ratio.
	const keys, valueLen = 300, 7 << 10
	const snapSize = len(snapMagic) + 8 + 8 + 4 + keys*(8+8+valueLen)
	const recSize = recHeaderSize + 8 + valueLen
	var o oracle
	val := make([]byte, valueLen)
	threshold, since, snapSeq, snaps := minCompact, 0, uint64(0), uint64(0)
	// write overwrites keys n times, checking after every write that s
	// snapshots exactly at each crossing.
	write := func(s *Store, n int) {
		published := uint64(0)
		for range n {
			i := len(o.ops)
			binary.LittleEndian.PutUint64(val, uint64(i))
			s.Set(key(i%keys), val)
			o.set(key(i%keys), val)
			since += recSize
			crossed := since >= threshold
			if crossed {
				published, snapSeq, since = published+1, uint64(i+1), 0
				threshold = max(minCompact, compactRatio*snapSize)
			}
			if m := s.Metrics(); m.Snapshots != published || m.SnapshotErrs != 0 {
				t.Fatalf("after %d writes: %d snapshots (%d failed), want %d", i+1, m.Snapshots, m.SnapshotErrs, published)
			}
			if bound := threshold + snapSize + 2*(256<<10); (crossed || i%64 == 0) && deviceBytes(t, dir) >= int64(bound) {
				t.Fatalf("after %d writes the device holds %d bytes, want below %d", i+1, deviceBytes(t, dir), bound)
			}
		}
		snaps += published
	}
	reopen := func(s *Store) *Store {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, info := mustOpen(t, dir, Options{})
		if info.SnapshotSeq != snapSeq || info.Replayed != uint64(len(o.ops))-snapSeq {
			t.Fatalf("recovery after %d writes, last snapshot at %d: %+v", len(o.ops), snapSeq, info)
		}
		assertMatchesOracle(t, s, &o)
		return s
	}
	s, _ := mustOpen(t, dir, Options{})
	write(s, 7000) // two crossings, then most of a third threshold
	s = reopen(s)
	write(s, 3000) // crosses after 124 writes, the replayed suffix counting, then again
	reopen(s).Close()
	if snaps < 4 {
		t.Fatalf("%d snapshots in %d writes, want 4", snaps, len(o.ops))
	}
}

// snapFaultDir is a MemDir whose first snapshot meets one device fault at
// the step fault names: its file's append fails, is short or is silently
// corrupted, its fsync fails, or the process dies after the rename and
// before the directory sync that would make it durable.
type snapFaultDir struct {
	*MemDir
	fault string
	fired bool
}

func (d *snapFaultDir) Create(name string) (File, error) {
	f, err := d.MemDir.Create(name)
	if err != nil || name != snapTmp || d.fired {
		return f, err
	}
	switch d.fault {
	case "append", "short", "corrupt", "fsync":
		d.fired = true
		return &faultyFile{File: f, fault: d.fault}, nil
	}
	return f, nil
}

func (d *snapFaultDir) Rename(oldname, newname string) error {
	if err := d.MemDir.Rename(oldname, newname); err != nil || d.fired || d.fault != "rename" {
		return err
	}
	d.fired = true
	d.MemDir.Crash()
	return faultinject.ErrInjected
}

// faultyFile is the snapshot file of a snapFaultDir, with MemDir's fault
// semantics: a short append persists half, a corrupt one flips a bit and
// reports success, a failed fsync leaves the bytes volatile.
type faultyFile struct {
	File
	fault string
}

func (f *faultyFile) Append(p []byte) (int, error) {
	switch f.fault {
	case "append":
		return 0, faultinject.ErrInjected
	case "short":
		n, _ := f.File.Append(p[:len(p)/2])
		return n, faultinject.ErrInjected
	case "corrupt":
		p = bytes.Clone(p)
		p[len(p)/2] ^= 0x40
	}
	return f.File.Append(p)
}

func (f *faultyFile) Sync() error {
	if f.fault == "fsync" {
		return faultinject.ErrInjected
	}
	return f.File.Sync()
}

// TestAutoSnapshotDeviceFaults drives a zero-Options store across the
// compaction threshold with one device fault in the snapshot the crossing
// triggers — or, for "compacted", a crash right after that snapshot
// compacted the log. Every synced, acknowledged write survives recovery, a
// failed attempt is counted, and the next crossing retries and publishes.
func TestAutoSnapshotDeviceFaults(t *testing.T) {
	const keys, valueLen = 64, 4 << 10
	for _, fault := range []string{"append", "short", "corrupt", "fsync", "rename", "compacted"} {
		t.Run(fault, func(t *testing.T) {
			dir := &snapFaultDir{MemDir: NewMemDir(nil), fault: fault}
			s, _ := mustOpen(t, dir, Options{})
			var o oracle
			val := make([]byte, valueLen)
			// setUntil writes until the store has attempted n snapshots.
			setUntil := func(n uint64) {
				t.Helper()
				for m := s.Metrics(); m.Snapshots+m.SnapshotErrs < n; m = s.Metrics() {
					i := len(o.ops)
					if i > 4*minCompact/valueLen {
						t.Fatalf("%d writes and %+v: no snapshot attempt", i, m)
					}
					binary.LittleEndian.PutUint64(val, uint64(i))
					s.Set(key(i%keys), val)
					o.set(key(i%keys), val)
				}
			}
			// crashAndReopen crashes the device and recovers the store.
			crashAndReopen := func() RecoveryInfo {
				t.Helper()
				dir.Crash()
				var info RecoveryInfo
				s, info = mustOpen(t, dir, Options{})
				if s.Seq() != uint64(len(o.ops)) {
					t.Fatalf("recovered seq %d of %d synced writes: %+v", s.Seq(), len(o.ops), info)
				}
				assertMatchesOracle(t, s, &o)
				return info
			}

			setUntil(1)
			failed := uint64(1)
			if fault == "compacted" {
				failed = 0
			}
			if m := s.Metrics(); m.SnapshotErrs != failed || m.Snapshots != 1-failed {
				t.Fatalf("first crossing: %+v", m)
			}
			if fault == "rename" || fault == "compacted" {
				crashAndReopen() // the process died: carry on with the recovered store
			}
			before := len(o.ops)
			setUntil(s.Metrics().SnapshotErrs + 1)
			if late := len(o.ops) - before - 1; fault == "rename" && late != 0 {
				// The recovered store replayed a threshold's worth of log.
				t.Fatalf("after a restart the snapshot came %d writes late", late)
			}
			if m := s.Metrics(); m.Snapshots != 1 {
				t.Fatalf("next crossing did not publish: %+v", m)
			}
			if info := crashAndReopen(); info.SnapshotLoaded == "" {
				t.Fatalf("recovery loaded no snapshot: %+v", info)
			}
		})
	}
}

// deviceBytes sums the sizes of every file on dir.
func deviceBytes(t *testing.T, dir Dir) int64 {
	t.Helper()
	names, err := dir.List()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		f, err := dir.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		total += size
	}
	return total
}

func TestChaosRecoveryDeterminism(t *testing.T) {
	// Same seed, same operation sequence → bit-identical recovered store
	// and identical fault traces.
	run := func() (uint64, []faultinject.Event, RecoveryInfo) {
		plan := faultinject.NewPlan(42)
		plan.SetRate(faultinject.StoreShort, 0.1)
		plan.SetRate(faultinject.StoreSync, 0.2)
		plan.SetRate(faultinject.StoreCorrupt, 0.05)
		plan.SetRate(faultinject.StoreTorn, 0.5)
		dir := NewMemDir(plan)
		s, _ := mustOpen(t, dir, Options{SyncEvery: 3, SegmentBytes: 1024})
		plan.Enable()
		for i := 0; i < 100; i++ {
			s.Set(key(i%30), value(i))
			if i%7 == 0 {
				s.Delete(key(i % 13))
			}
		}
		dir.Crash()
		plan.Disarm()
		dir.SetFaultPlan(nil)
		s2, info := mustOpen(t, dir, Options{})
		return s2.Hash(), plan.Events(), info
	}
	h1, ev1, info1 := run()
	h2, ev2, info2 := run()
	if h1 != h2 {
		t.Fatalf("recovered hashes differ across identical seeded runs: %#x vs %#x", h1, h2)
	}
	if info1 != info2 {
		t.Fatalf("recovery info differs: %+v vs %+v", info1, info2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("fault traces differ in length: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("fault trace diverges at %d: %v vs %v", i, ev1[i], ev2[i])
		}
	}
}
