package netsim

import (
	"testing"

	"kflex/internal/kernel"
)

func TestPathCompositionOrdering(t *testing.T) {
	// The paper's structural claims: XDP handling skips the stack and
	// the wakeup; sk_skb still pays the TCP stack; the TCP fast path at
	// XDP is cheaper than the full stack.
	if !(XDPUDP < XDPTCPFast && XDPTCPFast < SkSkbTCP) {
		t.Fatal("XDP paths not ordered")
	}
	if !(SkSkbTCP < UserspaceTCP) {
		t.Fatal("sk_skb must beat the user-space TCP path")
	}
	if !(UserspaceUDP < UserspaceTCP) {
		t.Fatal("UDP must be cheaper than TCP")
	}
	// KFlex's Memcached margin over user space lands in the paper's
	// 2.3–3× band for pure path costs.
	ratio := float64(UserspaceUDP) / XDPUDP
	if ratio < 2 || ratio > 4 {
		t.Fatalf("UDP path ratio %.2f outside plausible band", ratio)
	}
}

func TestPacketInterfaces(t *testing.T) {
	sock := kernel.NewObject("sock", nil)
	p := &Packet{Data: []byte("hello"), Sock: sock}
	copy(p.Tuple[:], "tuple-bytes!")
	if string(p.PacketData()) != "hello" {
		t.Fatal("PacketData wrong")
	}
	got := p.LookupUDP([]byte("tuple-bytes!"))
	if got == nil {
		t.Fatal("matching tuple not found")
	}
	if sock.Refs() != 2 {
		t.Fatalf("lookup did not take a reference: %d", sock.Refs())
	}
	got.Put()
	if p.LookupUDP([]byte("other-bytes!")) != nil {
		t.Fatal("mismatched tuple found")
	}
	if (&Packet{}).LookupUDP([]byte("tuple-bytes!")) != nil {
		t.Fatal("socketless packet found a socket")
	}
}

func TestCtxBuilders(t *testing.T) {
	p := &Packet{Data: make([]byte, 99)}
	xdp := p.XDPCtx(3)
	if len(xdp) != kernel.HookXDP.CtxSize || xdp[0] != 99 || xdp[4] != 3 {
		t.Fatalf("xdp ctx = %v", xdp)
	}
}

func TestModelMonotonic(t *testing.T) {
	if ModelExtNs(100, 1) >= ModelExtNs(1000, 1) {
		t.Fatal("model not monotonic in instructions")
	}
	if ModelExtNs(100, 1) >= ModelExtNs(100, 5) {
		t.Fatal("model not monotonic in helper calls")
	}
}
