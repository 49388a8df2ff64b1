package memcached

import (
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/offload"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/supervisor"
)

// The IDs the codec's helpers (memcached_parse, memcached_reply) register
// under, and the BMC cache map ID.
const (
	helperMcParse int32 = 0x3001
	helperMcReply int32 = 0x3002
	bmcCacheMapID int32 = 40
)

// bmcProgram is the BMC GET-only look-aside cache as a plain eBPF program
// (§5.1): parse, LRU-map lookup, serve hits at the hook, pass misses and
// every SET to the stack.
func bmcProgram() []insn.Instruction {
	b := asm.New()
	b.Mov(insn.R9, insn.R1) // ctx
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R10)
	b.Add(insn.R2, -int32(KeySize)+0)
	b.I(insn.Alu64Imm(insn.AluAdd, insn.R2, 0)) // keep key at fp-32
	b.Mov(insn.R3, insn.R10)
	b.Add(insn.R3, -(KeySize + ValueSize))
	b.Call(helperMcParse)
	b.I(insn.Alu64Imm(insn.AluAnd, insn.R0, 0xff))
	b.JmpImm(insn.JmpNe, insn.R0, kvprog.OpGet, "pass") // only GETs are cached
	b.MovImm(insn.R1, int64(bmcCacheMapID))
	b.Mov(insn.R2, insn.R10)
	b.Add(insn.R2, -int32(KeySize))
	b.Call(kernel.HelperMapLookup)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "pass") // miss
	b.Mov(insn.R6, insn.R0)
	b.Load(insn.R3, insn.R6, 0, 8) // value length
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R6)
	b.Add(insn.R2, 8) // value bytes follow the length
	b.Call(helperMcReply)
	b.Ret(kernel.XDPTx)
	b.Label("pass")
	b.Ret(kernel.XDPPass)
	return b.MustAssemble()
}

// --- System 3: KFlex ------------------------------------------------------------------

// KFlexMC serves the full workload at the XDP hook (§5.1): GETs and SETs
// both processed there against a heap hash table, with values allocated on
// demand by kflex_malloc. Worker is its per-CPU executor.
type (
	KFlexMC = offload.KFlex
	Worker  = offload.Worker
)

// NewKFlex loads the KFlex Memcached extension. shared enables heap sharing
// with user space and the shared spin lock (required by the co-designed
// variant).
func NewKFlex(cfg Config, servers int, shared bool) (*KFlexMC, error) {
	return offload.NewKFlex(&Codec, cfg, servers, shared)
}

// Supervised is the KFlex Memcached deployment routed through the
// lifecycle supervisor.
type Supervised = offload.Supervised

// NewSupervised builds the supervised deployment. tuning configures the
// circuit breaker (zero values take supervisor defaults).
func NewSupervised(cfg Config, servers int, tuning supervisor.Tuning) (*Supervised, error) {
	return offload.NewSupervised(&Codec, cfg, servers, tuning)
}

// --- System 4: co-design (§5.3) -----------------------------------------------------

// CoDesign wraps the KFlex server with a user-space garbage-collection
// thread that scans the shared hash table every GCInterval while holding
// the shared spin lock; requests arriving during a scan wait for it.
type CoDesign struct {
	*KFlexMC
	// GCInterval is the scan cadence, the paper's 1 s by default. The
	// first scan falls half an interval into the run, so a run one
	// interval long holds one.
	GCInterval float64
	nextGC     float64
	gcEnd      float64
	// GCRuns and GCEntries count the scans performed and the entries they
	// visited.
	GCRuns    uint64
	GCEntries uint64
}

// NewCoDesign loads the lock-protected extension variant with a shared heap.
func NewCoDesign(cfg Config, servers int) (*CoDesign, error) {
	k, err := NewKFlex(cfg, servers, true)
	if err != nil {
		return nil, err
	}
	return &CoDesign{KFlexMC: k, GCInterval: 1e9}, nil
}

// RunGC performs one real scan of the shared hash table from user space:
// it walks every bucket chain through the user mapping, exactly as §5.3's
// garbage collector accesses "Memcached's hash table defined in the
// extension's heap" via shared pointers.
func (c *CoDesign) RunGC() (entries uint64, err error) {
	uv, err := c.Ext().UserView()
	if err != nil {
		return 0, err
	}
	tableOff, err := uv.Load(uv.Base()+uint64(kvprog.GlobTable), 8)
	if err != nil {
		return 0, err
	}
	for i := 0; i < kvprog.Buckets; i++ {
		// Bucket entries were stored by the extension with
		// translate-on-store, so they are valid user VAs already.
		ptr, err := uv.Load(uv.Base()+tableOff+uint64(i*8), 8)
		if err != nil {
			return entries, err
		}
		for ptr != 0 {
			entries++
			ptr, err = uv.Load(ptr+uint64(kvprog.NodeNext), 8)
			if err != nil {
				return entries, err
			}
		}
	}
	c.GCRuns++
	c.GCEntries += entries
	return entries, nil
}

// Serve implements sim.System: the fast path matches KFlex, plus the
// periodic GC pause contending on the shared lock. Each scan is a real
// RunGC, and holds the lock for its entries × netsim.GCEntryNs.
func (c *CoDesign) Serve(cpu int, now float64) float64 {
	if c.nextGC == 0 {
		c.nextGC = c.GCInterval / 2
	}
	if now >= c.nextGC {
		// The GC thread wakes up, takes the lock, and scans.
		entries, err := c.RunGC()
		if err != nil {
			// Internal invariant: the table is the extension's own, read
			// through a mapping NewKFlex set up; a failed load is a bug.
			panic(err)
		}
		c.nextGC = now + c.GCInterval
		c.gcEnd = now + float64(entries)*netsim.GCEntryNs
	}
	ns := c.KFlexMC.Serve(cpu, now)
	if now < c.gcEnd {
		ns += c.gcEnd - now // lock held by the collector
	}
	return ns
}
