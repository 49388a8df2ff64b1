// Package netsim models the server-side network path of the paper's
// testbed (§5): which kernel stages a request traverses before the
// system under test processes it, and what each stage costs. The paper's
// end-to-end wins come from which stages each system avoids — KFlex's
// Memcached handles requests at the XDP hook and skips the UDP/TCP stack,
// socket wakeup, and the user-space context switch; its Redis extension at
// sk_skb still pays the TCP stack, which is exactly why its speedup is
// smaller (§5.1). Stage costs are calibrated from the literature the paper
// builds on (IX, Arrakis, the killer-microseconds analyses); the
// user-space handlers' work is calibrated from Go benchmarks. Every cost a
// simulated request pays is one of these constants or ModelExtNs of the
// extension's counted work, so a figure depends only on seeds and counted
// work, never on the wall clock.
package netsim

import (
	"encoding/binary"

	"kflex/internal/kernel"
)

// Per-request server-side stage costs in nanoseconds.
const (
	// nic covers DMA, descriptor processing, and the driver.
	nic = 1_500
	// xdpDispatch is the cost of entering an XDP-hook extension.
	xdpDispatch = 300
	// udpStack is the in-kernel UDP receive path up to the socket.
	udpStack = 1_600
	// tcpStack is the in-kernel TCP receive path (ack processing,
	// reassembly, socket delivery).
	tcpStack = 3_400
	// tcpFastPath is KFlex's TCP fast path handled at the XDP hook (§5.1:
	// "we implement support in Linux to handle TCP's fast path at the XDP
	// hook itself").
	tcpFastPath = 1_000
	// skSkbDispatch enters an sk_skb-hook extension after transport
	// processing.
	skSkbDispatch = 300
	// wakeup is the socket wakeup plus the context switch into the
	// user-space server thread.
	wakeup = 3_000
	// syscallReply is the send-path system call of a user-space reply.
	syscallReply = 700
	// txPath is the transmit-side driver cost every reply pays.
	txPath = 800
)

// The fixed path cost of one request, by where it is served.
const (
	// UserspaceUDP is a UDP request served in user space: NIC + UDP stack +
	// wakeup + reply syscall + TX.
	UserspaceUDP = nic + udpStack + wakeup + syscallReply + txPath
	// UserspaceTCP is a TCP request served in user space.
	UserspaceTCP = nic + tcpStack + wakeup + syscallReply + txPath
	// XDPUDP is a request fully handled by an XDP extension over UDP (BMC
	// hits, KFlex GETs).
	XDPUDP = nic + xdpDispatch + txPath
	// XDPTCPFast is a TCP request handled at XDP via KFlex's TCP fast path
	// (KFlex Memcached SETs).
	XDPTCPFast = nic + xdpDispatch + tcpFastPath + txPath
	// SkSkbTCP is a TCP request handled by an sk_skb extension (KFlex
	// Redis): the TCP stack is still traversed.
	SkSkbTCP = nic + tcpStack + skSkbDispatch + txPath
	// BMCMissExtra is what a BMC cache miss adds on top of the user-space
	// path: the wasted XDP pass before falling through to the full stack.
	BMCMissExtra = xdpDispatch
)

// The user-space handlers' work per request, in nanoseconds: what a
// baseline server adds to its path cost. Each is the median of three
// 1 s runs of its BenchmarkHandler sub-benchmark (handler_test.go) on a
// 2-vCPU Intel Xeon VM, rounded to 10 ns; rerun it after changing a
// handler. The paths they add to are 7.6 µs (UDP) and 9.4 µs (TCP).
const (
	// McGetNs and McSetNs are Memcached's Codec.Handle over a store
	// preloaded with the key space, for a Zipfian GET or SET (157 and
	// 283 ns measured).
	McGetNs = 160
	McSetNs = 280
	// RedisGetNs and RedisSetNs are the same for Redis's RESP codec (244
	// and 390 ns measured).
	RedisGetNs = 240
	RedisSetNs = 390
	// ZAddNs is one ZADD: RESP parse, then the insert into the sorted set
	// under its global lock (1 780 ns measured).
	ZAddNs = 1_780
	// GCWordNs and GCEntryNs price the co-design collector's scan of the
	// shared hash table through the user mapping, per bucket word read and
	// per entry visited (GCPauseNs). gc-scan times a full scan of the
	// preloaded 64 Ki entries in 64 Ki buckets and in 16 Ki (the same
	// chains, four buckets folded into one). Over eight runs the 64 Ki scan
	// read 150–181 ns per entry (median 163) and the 16 Ki one 161–177: the
	// two solve for a word cost of -18 to +7 ns, zero within the noise,
	// since a chain of dependent loads costs more per entry than the
	// independent ones it replaces. So a word is free and an entry is the
	// 64 Ki scan's median, rounded.
	GCWordNs  = 0
	GCEntryNs = 160
)

// GCPauseNs is the time the co-design collector holds the shared lock for a
// scan that read words bucket words and visited entries entries.
func GCPauseNs(words, entries uint64) float64 {
	return float64(words)*GCWordNs + float64(entries)*GCEntryNs
}

// --- Packets -------------------------------------------------------------------

// Packet is a request frame delivered to a hook. It implements
// kernel.PacketBytes for the packet-access helpers and kernel.UDPLookups
// for bpf_sk_lookup_udp.
type Packet struct {
	// Data is the payload (the application-level request encoding).
	Data []byte
	// Tuple is the 12-byte IPv4 connection tuple.
	Tuple [12]byte
	// Sock is the destination socket object, if one exists.
	Sock *kernel.Object
	// Reply receives the response frame built by the reply helpers when
	// an extension serves the request at the hook.
	Reply []byte
}

// PacketData implements kernel.PacketBytes.
func (p *Packet) PacketData() []byte { return p.Data }

// LookupUDP implements kernel.UDPLookups: it returns a new reference to the
// destination socket when the tuple matches.
func (p *Packet) LookupUDP(tuple []byte) *kernel.Object {
	if p.Sock == nil {
		return nil
	}
	for i := 0; i < 12 && i < len(tuple); i++ {
		if tuple[i] != p.Tuple[i] {
			return nil
		}
	}
	return p.Sock.Get()
}

// XDPCtx builds the XDP hook context bytes for p.
func (p *Packet) XDPCtx(rxQueue uint32) []byte {
	ctx := make([]byte, kernel.HookXDP.CtxSize)
	binary.LittleEndian.PutUint32(ctx[0:], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(ctx[4:], rxQueue)
	return ctx
}

// --- Extension execution cost model ---------------------------------------------

// The VM is an interpreter; the paper's runtime executes JIT-compiled
// native code. To report end-to-end numbers that correspond to the paper's
// system rather than to interpreter overhead, extension service times are
// modeled from the VM's executed-work counters at JIT-like per-instruction
// cost (≈1 instruction/cycle at the testbed's 2.3 GHz, §5). Relative
// effects — guards executed, probes, helper calls, traversal lengths — come
// from real executed instructions. Wall-clock interpreter measurements are
// reported alongside by the benchmark suite.
const (
	// InsnNs is the modeled cost of one JITed bytecode instruction.
	InsnNs = 0.45
	// HelperNs is the modeled fixed overhead of one helper call
	// (call sequence + typical helper body).
	HelperNs = 18
)

// ModelExtNs converts executed-work counters into modeled nanoseconds.
func ModelExtNs(insns, helperCalls uint64) float64 {
	return float64(insns)*InsnNs + float64(helperCalls)*HelperNs
}
