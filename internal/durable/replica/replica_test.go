package replica

import (
	"fmt"
	"testing"

	"kflex/internal/durable"
	"kflex/internal/faultinject"
)

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%04d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%04d", i)) }

// newStore opens an empty store on a device of its own, for a primary or a
// follower whose device the test never looks at.
func newStore(t *testing.T) *durable.Store {
	t.Helper()
	s, _, err := durable.Open(durable.NewMemDir(nil), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIncrementalCatchUp(t *testing.T) {
	primary := newStore(t)
	local := newStore(t)
	f := NewFollower(primary, local)

	for i := 0; i < 50; i++ {
		primary.Set(key(i), value(i))
	}
	n, err := f.CatchUp()
	if err != nil || n != 50 {
		t.Fatalf("CatchUp: n=%d err=%v, want 50 shipped", n, err)
	}
	if local.Hash() != primary.Hash() {
		t.Fatal("follower diverged after catch-up")
	}
	// Idle catch-up ships nothing.
	if n, _ := f.CatchUp(); n != 0 {
		t.Fatalf("idle CatchUp shipped %d records", n)
	}
	// Deletions replicate too.
	primary.Delete(key(0))
	primary.Set(key(1), []byte("updated"))
	if n, err := f.CatchUp(); err != nil || n != 2 {
		t.Fatalf("delta CatchUp: n=%d err=%v", n, err)
	}
	if local.Hash() != primary.Hash() {
		t.Fatal("follower diverged after delta")
	}
	if m := f.Metrics(); m.Shipped != 52 || m.FullSyncs != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestFullSyncWhenBehindTail(t *testing.T) {
	primaryDir := durable.NewMemDir(nil)
	primary, _, err := durable.Open(primaryDir, durable.Options{TailRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	local := newStore(t)
	f := NewFollower(primary, local)

	// Far more writes than the tail holds: incremental shipping cannot
	// reach back to seq 0.
	for i := 0; i < 100; i++ {
		primary.Set(key(i), value(i))
	}
	if _, err := f.CatchUp(); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if m := f.Metrics(); m.FullSyncs != 1 || m.Shipped != 0 {
		t.Fatalf("want a full sync, got %+v", m)
	}
	if local.Hash() != primary.Hash() || local.Seq() != primary.Seq() {
		t.Fatal("full sync diverged")
	}
	// Back in tail range: subsequent catch-ups are incremental again.
	primary.Set(key(100), value(100))
	if n, err := f.CatchUp(); err != nil || n != 1 {
		t.Fatalf("post-full-sync delta: n=%d err=%v", n, err)
	}
}

func TestPromoteServesReplicatedPrefixDurably(t *testing.T) {
	primary := newStore(t)
	followerDir := durable.NewMemDir(nil)
	local, _, err := durable.Open(followerDir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(primary, local)

	for i := 0; i < 30; i++ {
		primary.Set(key(i), value(i))
	}
	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// Primary "dies"; promote and keep serving.
	promoted := f.Promote()
	if promoted.Seq() != 30 {
		t.Fatalf("promoted at seq %d, want 30", promoted.Seq())
	}
	promoted.Set(key(100), value(100))
	if _, err := f.CatchUp(); err == nil {
		t.Fatal("CatchUp after promotion must fail")
	}
	// The promoted store has its own durable history: a crash-reopen of
	// the follower's device recovers the replicated prefix plus the
	// post-promotion writes.
	promoted.Close()
	reopened, info, err := durable.Open(followerDir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Seq() != 31 || info.Replayed != 31 {
		t.Fatalf("promoted store not durable: seq=%d info=%+v", reopened.Seq(), info)
	}
	if got := reopened.Get(key(100)); got == nil {
		t.Fatal("post-promotion write lost")
	}
}

func TestDivergedReplicaForcesFullSync(t *testing.T) {
	// A rogue local write keeps the follower's sequence in lockstep with
	// the primary while the contents diverge — invisible to per-record
	// verification, caught by the anti-entropy digest check.
	primary := newStore(t)
	local := newStore(t)
	f := NewFollower(primary, local)
	primary.Set(key(0), value(0))
	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// Diverge the follower (a write that never happened on the primary).
	local.Set([]byte("rogue"), []byte("write"))
	primary.Set(key(1), value(1))
	primary.Set(key(2), value(2))
	if _, err := f.CatchUp(); err != nil {
		t.Fatalf("CatchUp must recover via full sync: %v", err)
	}
	if m := f.Metrics(); m.Rejected == 0 && m.FullSyncs == 0 {
		t.Fatalf("divergence not detected: %+v", m)
	}
	if local.Hash() != primary.Hash() {
		t.Fatal("follower still diverged after recovery")
	}
	if local.Get([]byte("rogue")) != nil {
		t.Fatal("rogue write survived full sync")
	}
}

func TestRepeatedDigestMismatchConvergesByFullSync(t *testing.T) {
	// The full-sync fallback must converge under repeated corruption, not
	// loop: two consecutive catch-ups each find the anti-entropy digest
	// mismatched (the replica was re-poisoned after the first recovery),
	// and each recovers by full copy. After the second, the follower is
	// clean and replication returns to incremental shipping.
	primary := newStore(t)
	local := newStore(t)
	f := NewFollower(primary, local)
	for i := 0; i < 20; i++ {
		primary.Set(key(i), value(i))
	}
	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	base := f.Metrics()
	for round := 1; round <= 2; round++ {
		// Poison a replicated key with a value the primary never wrote.
		// The local write bumps the follower's sequence; the primary's
		// next write re-aligns the sequences, so only the content digest
		// can expose the divergence.
		local.Set(key(0), []byte("poisoned"))
		primary.Set(key(20+round), value(20+round))
		if _, err := f.CatchUp(); err != nil {
			t.Fatalf("round %d: CatchUp must recover via full sync: %v", round, err)
		}
		m := f.Metrics()
		if m.FullSyncs != base.FullSyncs+uint64(round) || m.Rejected != base.Rejected+uint64(round) {
			t.Fatalf("round %d: want %d full syncs, got %+v", round, round, m)
		}
		if local.Hash() != primary.Hash() || local.Seq() != primary.Seq() {
			t.Fatalf("round %d: follower still diverged after full sync", round)
		}
	}
	// Converged, not looping: an idle catch-up ships nothing and forces no
	// further syncs, and new writes replicate incrementally again.
	if n, err := f.CatchUp(); n != 0 || err != nil {
		t.Fatalf("idle CatchUp after recovery: n=%d err=%v", n, err)
	}
	primary.Set(key(99), value(99))
	n, err := f.CatchUp()
	if err != nil || n != 1 {
		t.Fatalf("post-recovery delta: n=%d err=%v", n, err)
	}
	m := f.Metrics()
	if m.FullSyncs != base.FullSyncs+2 || m.Rejected != base.Rejected+2 {
		t.Fatalf("recovery looped: %+v", m)
	}
	if local.Hash() != primary.Hash() {
		t.Fatal("follower diverged after returning to incremental shipping")
	}
}

func TestCorruptShippedRecordRejectedThenConverges(t *testing.T) {
	// A shipped record corrupted in transit must be rejected by the CRC
	// check without mutating the follower, and the next catch-up must
	// converge by re-shipping the clean records — repeatedly.
	primary := newStore(t)
	local := newStore(t)
	f := NewFollower(primary, local)
	primary.Set(key(0), value(0))
	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		primary.Set(key(round), value(round))
		recs, ok := primary.RecordsSince(local.Seq())
		if !ok || len(recs) != 1 {
			t.Fatalf("round %d: RecordsSince: ok=%v n=%d", round, ok, len(recs))
		}
		// Flip one payload byte: the same frame a faulty transport would
		// deliver. The follower must reject it and stay at its sequence.
		corrupt := append([]byte(nil), recs[0]...)
		corrupt[len(corrupt)-1] ^= 0x40
		seq, hash := local.Seq(), local.Hash()
		if err := local.ApplyReplicated(corrupt); err == nil {
			t.Fatalf("round %d: corrupted record applied", round)
		}
		if local.Seq() != seq || local.Hash() != hash {
			t.Fatalf("round %d: rejected record mutated the follower", round)
		}
		// The clean feed is still there: catch-up ships it and converges.
		if n, err := f.CatchUp(); err != nil || n != 1 {
			t.Fatalf("round %d: CatchUp after rejection: n=%d err=%v", round, n, err)
		}
		if local.Hash() != primary.Hash() {
			t.Fatalf("round %d: follower diverged", round)
		}
	}
	if m := f.Metrics(); m.FullSyncs != 0 || m.Rejected != 0 {
		t.Fatalf("clean re-ship should not need full syncs: %+v", m)
	}
}

func TestFailoverUnderStorageFaultsDeterministic(t *testing.T) {
	// Primary runs on an adversarial device, follower tails it, primary
	// crashes mid-traffic, follower promotes. Two identically-seeded runs
	// must converge to bit-identical promoted stores.
	run := func(seed int64) (uint64, uint64, Metrics) {
		plan := faultinject.NewPlan(seed)
		plan.SetRate(faultinject.StoreShort, 0.05)
		plan.SetRate(faultinject.StoreSync, 0.1)
		primaryDir := durable.NewMemDir(plan)
		primary, _, err := durable.Open(primaryDir, durable.Options{SyncEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		local, _, err := durable.Open(durable.NewMemDir(nil), durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f := NewFollower(primary, local)
		plan.Enable()
		for i := 0; i < 200; i++ {
			primary.Set(key(i%40), value(i))
			if i%10 == 9 {
				if _, err := f.CatchUp(); err != nil {
					t.Fatalf("CatchUp at %d: %v", i, err)
				}
			}
		}
		plan.Disarm()
		// Primary dies here (we simply stop talking to it); promote.
		promoted := f.Promote()
		return promoted.Hash(), promoted.Seq(), f.Metrics()
	}
	h1, s1, m1 := run(77)
	h2, s2, m2 := run(77)
	if h1 != h2 || s1 != s2 || m1 != m2 {
		t.Fatalf("failover not deterministic: %#x/%d/%+v vs %#x/%d/%+v", h1, s1, m1, h2, s2, m2)
	}
	if s1 == 0 {
		t.Fatal("follower replicated nothing")
	}
}

func TestFollowerTailsAcrossRingWraps(t *testing.T) {
	// The primary's tail is a 16-slot ring that overwrites its oldest
	// record in place. A follower that polls often enough must never
	// notice: it ships every record across many laps of the ring. One
	// that sleeps through more than a lap must be told so (full sync),
	// not handed slots that have since been reused.
	const tailRecords = 16
	primary, _, err := durable.Open(durable.NewMemDir(nil), durable.Options{TailRecords: tailRecords})
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := durable.Open(durable.NewMemDir(nil), durable.Options{TailRecords: tailRecords})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(primary, local)

	write := func(i int) {
		if i%5 == 4 {
			primary.Delete(key(i % 7))
		} else {
			primary.Set(key(i%7), value(i))
		}
	}
	converged := func(when string) {
		t.Helper()
		if local.Seq() != primary.Seq() || local.Hash() != primary.Hash() {
			t.Fatalf("%s: follower at seq %d hash %#x, primary at seq %d hash %#x",
				when, local.Seq(), local.Hash(), primary.Seq(), primary.Hash())
		}
	}

	// Five laps of the ring in bursts shorter than the ring.
	i := 0
	for burst := 0; i < 5*tailRecords; burst++ {
		n := 1 + burst%(tailRecords-1)
		for j := 0; j < n; j++ {
			write(i)
			i++
		}
		if shipped, err := f.CatchUp(); err != nil || shipped != n {
			t.Fatalf("burst %d: shipped %d of %d, err=%v", burst, shipped, n, err)
		}
		converged(fmt.Sprintf("burst %d", burst))
	}
	if m := f.Metrics(); m.FullSyncs != 0 || m.Shipped != uint64(i) {
		t.Fatalf("incremental phase: %+v, want %d shipped and no full sync", m, i)
	}

	// Fall behind by more than a lap: the only way back is a full copy.
	for j := 0; j < tailRecords+3; j++ {
		write(i)
		i++
	}
	if shipped, err := f.CatchUp(); err != nil || shipped != 0 {
		t.Fatalf("behind the tail: shipped %d, err=%v, want a full sync", shipped, err)
	}
	if m := f.Metrics(); m.FullSyncs != 1 || m.Rejected != 0 {
		t.Fatalf("after falling behind: %+v, want exactly one full sync", m)
	}
	converged("after full sync")

	// And incremental again afterwards, across another lap and a half;
	// a follower of the follower sees the same ring semantics downstream.
	second := NewFollower(local, newStore(t))
	if _, err := second.CatchUp(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < tailRecords+tailRecords/2; j++ {
		write(i)
		i++
		if j%4 == 3 {
			if shipped, err := f.CatchUp(); err != nil || shipped != 4 {
				t.Fatalf("post-full-sync delta: shipped %d, err=%v", shipped, err)
			}
			if shipped, err := second.CatchUp(); err != nil || shipped != 4 {
				t.Fatalf("second-hop delta: shipped %d, err=%v", shipped, err)
			}
		}
	}
	converged("after the second incremental phase")
	if second.Local().Hash() != primary.Hash() {
		t.Fatal("second-hop follower diverged")
	}
	if m := f.Metrics(); m.FullSyncs != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}
