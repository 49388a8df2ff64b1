package offload

import (
	"cmp"
	"sort"
	"sync"
	"sync/atomic"

	"kflex"
	"kflex/internal/apps/kvprog"
	"kflex/internal/netsim"
	"kflex/internal/supervisor"
)

// Supervised is the offloaded deployment routed through the lifecycle
// supervisor: a fault burst that degrades the extension no longer forfeits
// the offload permanently. While the circuit is open the server answers
// from a user-space store; once the supervisor reloads the extension it
// resyncs the store into the heap and traffic returns to the hook.
//
// The user-space store is authoritative: every offloaded SET is written
// through to it, so no acknowledged write is lost across a
// quarantine/reload cycle, and an extension GET miss double-checks it
// (the entry may have landed while the circuit was open).
//
// Like the other deployments, a Supervised instance drives one request at
// a time per instance; the per-cpu concurrency contract lives in the
// supervisor itself.
type Supervised struct {
	codec *Codec
	sup   *supervisor.Supervisor
	store KV
	conn  conn
	reply []byte
	// dirty tracks keys whose authoritative value may differ from the
	// extension heap's copy: SETs acknowledged on the fallback path while
	// the circuit was open (or the run was cancelled mid-flight). A warm
	// reload replays exactly this set — the O(delta) resync contract —
	// and GETs served from a stale heap are corrected against it.
	//
	// mu guards dirty: a live migration's adoption resync runs on the
	// Migrate caller's goroutine while Execute keeps acknowledging
	// fallback SETs on the serving goroutine. resync snapshots and
	// unmarks under mu, then replays outside it; a key re-dirtied after
	// its snapshot keeps its fresh mark, so the stale replayed value is
	// still corrected on the next GET.
	//
	// dirtyN is len(dirty), stored under mu with every write of the set.
	// Execute reads it without the lock and takes mu only when it is
	// non-zero: an empty set has no key to correct or unmark, so a clean
	// GET hit and a write-through SET lock nothing. A FallbackSet that has
	// returned has stored its non-zero size, so a later GET sees it.
	mu     sync.Mutex
	dirty  map[string]struct{}
	dirtyN atomic.Int64
	// Offloaded counts requests served by the extension; Fallbacks counts
	// requests served by the user-space store (open circuit, probe quota,
	// cancelled run, store GET backfill, or dirty-key correction).
	Offloaded, Fallbacks uint64
}

// NewSupervised builds the supervised deployment of the codec's extension.
// tuning configures the circuit breaker (zero values take supervisor
// defaults). With cfg.Durable set, the authoritative store is the
// WAL-backed durable store.
func NewSupervised(c *Codec, cfg Config, servers int, tuning supervisor.Tuning) (*Supervised, error) {
	rt := kflex.NewRuntime()
	c.RegisterHelpers(rt)
	var store KV = cfg.Durable
	if cfg.Durable == nil {
		store = NewStore()
	}
	if cfg.Preload {
		Preload(store, cfg.ValueSize)
	}
	s := &Supervised{codec: c, store: store, conn: c.newConn(), dirty: make(map[string]struct{})}
	sup, err := supervisor.New(supervisor.Config{
		Runtime: rt,
		Spec: kflex.Spec{
			Name:            "kflex-" + c.Name,
			Insns:           kvprog.Build(c.Prog),
			Hook:            c.Hook,
			Mode:            kflex.ModeKFlex,
			HeapSize:        cmp.Or(cfg.HeapSize, defaultHeapSize),
			NumCPUs:         max(cfg.Slots, servers),
			FaultPlan:       cfg.FaultPlan,
			CancelThreshold: cfg.CancelThreshold,
		},
		NumCPUs: servers,
		Init:    s.resync,
		// resync honours Generation.Warm — it replays only the dirty set —
		// so a heap that drained and audited clean is adopted.
		WarmReload: !cfg.ColdReload,
		Tuning:     tuning,
	})
	if err != nil {
		return nil, err
	}
	s.sup = sup
	return s, nil
}

// resync initialises a generation's heap from the authoritative store, in
// sorted key order so the replay is deterministic. A cold generation
// (fresh heap) is initialised and receives every key; a warm generation
// adopted the previous heap, so only the dirty set — keys acknowledged on
// the fallback path while the heap was out of service — is replayed.
func (s *Supervised) resync(g supervisor.Generation) (rep supervisor.InitReport, err error) {
	// One packet and ctx for the whole replay. They are the resync's own: a
	// migration resyncs beside a serving Execute.
	cn := s.codec.newConn()
	if g.Warm {
		// The adopted heap already holds every key the old generation
		// served; push only the delta, sorted for determinism. Snapshot
		// keys and their authoritative values and unmark them under the
		// lock, then replay outside it: during a live migration Execute
		// keeps acknowledging fallback SETs concurrently, and a key
		// re-dirtied after its snapshot keeps its fresh mark so the next
		// GET is still corrected against the store.
		s.mu.Lock()
		keys := make([]string, 0, len(s.dirty))
		for k := range s.dirty {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		vals := make([][]byte, len(keys))
		for i, k := range keys {
			vals[i] = s.store.Get([]byte(k))
			delete(s.dirty, k)
		}
		s.dirtyN.Store(int64(len(s.dirty)))
		s.mu.Unlock()
		rep.ResyncOps, err = s.codec.push(g.Handles[0], &cn, func(push func(key, value []byte) error) error {
			for i, k := range keys {
				if vals[i] == nil {
					continue
				}
				if err := push([]byte(k), vals[i]); err != nil {
					return err
				}
			}
			return nil
		})
		return rep, err
	}
	rep.FullResync = true
	// Unmark before the replay, as the warm branch does per key: Range may
	// walk a snapshot, so a FallbackSet that lands once its key was passed
	// over is in the store but not in the heap, and must keep its mark.
	s.mu.Lock()
	clear(s.dirty)
	s.dirtyN.Store(0)
	s.mu.Unlock()
	rep.ResyncOps, err = s.codec.populate(g.Handles[0], &cn, s.store.Range)
	return rep, err
}

// FallbackSet acknowledges one SET on the authoritative store, as the
// user-space fallback path does: the value is durable and the key joins
// the dirty set the next warm resync replays. Store first, mark second: a
// migration's adoption resync may run between the two statements, and in
// this order it either replays the new value or leaves the mark for the
// next resync — marking first would let it snapshot the old value, clear
// the mark, and leave the heap stale for an acknowledged write. Migration
// benchmarks and chaos tests also call it directly to build a dirty delta
// of an exact size without driving traffic.
func (s *Supervised) FallbackSet(key, value []byte) {
	s.store.Set(key, value)
	s.mu.Lock()
	s.dirty[string(key)] = struct{}{}
	s.dirtyN.Store(int64(len(s.dirty)))
	s.mu.Unlock()
}

// Execute serves one frame: on the extension when the circuit admits it,
// from the authoritative store otherwise. It reports the reply, the
// modeled extension cost (0 on fallback), and whether the request was
// offloaded.
func (s *Supervised) Execute(cpu int, frame []byte) (reply []byte, extNs float64, offloaded bool) {
	c := s.codec
	s.conn.arm(frame)
	res, err := s.sup.Run(cpu, &s.conn.pkt, s.conn.ctx)
	// Parsed after the run, not before: on mc-read the other order
	// measured ~20 ns per op slower (p50 0.68 against 0.66 µs).
	op, key, value := c.Parse(frame)
	if err != nil || !c.served(res) {
		// Open circuit, probe quota, a cancelled run, or a frame the
		// extension passed up: the store serves the request — the paper's
		// offload-miss path (§5). A SET acknowledged here is invisible to
		// the (stale) heap, hence FallbackSet.
		s.Fallbacks++
		if op == kvprog.OpSet {
			s.FallbackSet(key, value)
		}
		s.reply = c.answer(s.store, op, key, s.reply)
		return s.reply, 0, false
	}
	switch op {
	case kvprog.OpSet:
		// Write-through: the store mirrors every offloaded SET so a
		// reloaded generation can be resynced from it. The heap now holds
		// the same value, so the key is no longer dirty.
		s.store.Set(key, value)
		if s.dirtyN.Load() != 0 {
			s.mu.Lock()
			delete(s.dirty, string(key))
			s.dirtyN.Store(int64(len(s.dirty)))
			s.mu.Unlock()
		}
	case kvprog.OpGet:
		stale := false
		if s.dirtyN.Load() != 0 {
			s.mu.Lock()
			_, stale = s.dirty[string(key)]
			s.mu.Unlock()
		}
		if stale || string(s.conn.pkt.Reply) == c.Miss {
			// Dirty key (heap copy stale) or extension miss (the entry
			// may have landed while the circuit was open): the store is
			// authoritative for acknowledged SETs.
			if v := s.store.Get(key); v != nil {
				s.Fallbacks++
				s.reply = c.AppendHit(s.reply[:0], v)
				return s.reply, 0, false
			}
		}
	}
	s.Offloaded++
	return s.conn.pkt.Reply, netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls), true
}

// Supervisor exposes the lifecycle supervisor (state, trace, audits).
func (s *Supervised) Supervisor() *supervisor.Supervisor { return s.sup }

// Store exposes the authoritative user-space store (a *Store by default,
// the WAL-backed durable store when Config.Durable is set).
func (s *Supervised) Store() KV { return s.store }

// Close retires the live generation.
func (s *Supervised) Close() { s.sup.Close() }
