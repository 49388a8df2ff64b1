package kflex

import "kflex/internal/kernel"

// Helper-function IDs callable from extension bytecode (insn.Call /
// asm.Builder.Call). The low IDs match their eBPF counterparts; the 0x1000
// block is the KFlex runtime API of the paper's Table 2; the 0x2000 block
// accesses packet bytes.
const (
	HelperMapLookup  = kernel.HelperMapLookup
	HelperMapUpdate  = kernel.HelperMapUpdate
	HelperMapDelete  = kernel.HelperMapDelete
	HelperKtimeGetNS = kernel.HelperKtimeGetNS
	HelperPrandomU32 = kernel.HelperPrandomU32
	HelperSkLookup   = kernel.HelperSkLookup
	HelperSkRelease  = kernel.HelperSkRelease

	HelperKflexMalloc     = kernel.HelperKflexMalloc
	HelperKflexFree       = kernel.HelperKflexFree
	HelperKflexSpinLock   = kernel.HelperKflexSpinLock
	HelperKflexSpinUnlock = kernel.HelperKflexSpinUnlock
	HelperKflexHeapBase   = kernel.HelperKflexHeapBase

	HelperPktLoadBytes  = kernel.HelperPktLoadBytes
	HelperPktStoreBytes = kernel.HelperPktStoreBytes
)

// XDP hook return codes.
const (
	XDPAborted = kernel.XDPAborted
	XDPDrop    = kernel.XDPDrop
	XDPPass    = kernel.XDPPass
	XDPTx      = kernel.XDPTx
)

// KernelObject is a refcounted kernel resource (e.g. a socket) that
// acquiring helpers hand to extensions; cancellation releases held objects
// through their destructors (§3.3).
type KernelObject = kernel.Object

// NewKernelObject creates a kernel object with one reference; destroy
// (optional) runs when the count reaches zero.
func NewKernelObject(destroy func()) *KernelObject { return kernel.NewObject(destroy) }
