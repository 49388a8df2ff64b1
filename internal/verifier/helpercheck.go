package verifier

import (
	"fmt"

	"kflex/insn"
	"kflex/internal/kernel"
)

// stepCall verifies a helper call against its contract (kernel-interface
// compliance, §2.1): argument types, stack-buffer initialization, object
// kinds and reference state, lock discipline, and the return-value type.
func (v *verifier) stepCall(idx int, ins insn.Instruction, st *state) error {
	if ins.Src != 0 {
		return &Error{Insn: idx, Msg: "bpf-to-bpf calls are not supported"}
	}
	spec, _ := v.cfg.Kernel.Helpers.Lookup(ins.Imm) // known: Verify's structural check
	if spec.KFlexOnly && (v.cfg.Mode != ModeKFlex || v.cfg.HeapSize == 0) {
		return &Error{Insn: idx, Msg: fmt.Sprintf(
			"helper %s requires a KFlex extension with a declared heap", spec.Name)}
	}
	if len(spec.Args) > 5 {
		return &Error{Insn: idx, Msg: fmt.Sprintf("helper %s declares too many args", spec.Name)}
	}

	// Resolve the map argument first: stack-buffer sizes may depend on it.
	var m kernel.Map
	for i, a := range spec.Args {
		if a.Kind != kernel.ArgMapID {
			continue
		}
		reg := insn.Reg(insn.R1 + insn.Reg(i))
		c, isConst := st.Regs[reg].IsConst()
		if st.Regs[reg].Type != TypeScalar || !isConst {
			return &Error{Insn: idx, Msg: fmt.Sprintf(
				"%s: map ID argument %d must be a constant", spec.Name, i+1)}
		}
		mm, found := v.cfg.Kernel.Map(int32(c))
		if !found {
			return &Error{Insn: idx, Msg: fmt.Sprintf(
				"%s: no map registered with ID %d", spec.Name, int32(c))}
		}
		m = mm
	}

	// Out-buffers are marked written after the call succeeds.
	type outBuf struct {
		off  int64
		size int
	}
	var outs []outBuf

	for i, a := range spec.Args {
		reg := insn.Reg(insn.R1 + insn.Reg(i))
		r := &st.Regs[reg]
		argErr := func(format string, args ...any) error {
			return &Error{Insn: idx, Msg: fmt.Sprintf(
				"%s: arg %d (%v): %s", spec.Name, i+1, reg, fmt.Sprintf(format, args...))}
		}
		switch a.Kind {
		case kernel.ArgNone:
			continue
		case kernel.ArgScalar:
			if r.Type != TypeScalar {
				return argErr("expected scalar, have %s", r.Type)
			}
		case kernel.ArgMapID:
			// Validated above.
		case kernel.ArgCtx:
			if r.Type != TypeCtx {
				return argErr("expected ctx pointer, have %s", r.Type)
			}
		case kernel.ArgStackBuf:
			if r.Type != TypeStack {
				return argErr("expected stack pointer, have %s", r.Type)
			}
			size := a.Size
			switch size {
			case kernel.SizeMapKey:
				if m == nil {
					return argErr("map-sized buffer without map argument")
				}
				size = m.KeySize()
			case kernel.SizeMapValue:
				if m == nil {
					return argErr("map-sized buffer without map argument")
				}
				size = m.ValueSize()
			}
			if a.SizeArg > 0 {
				lr := &st.Regs[insn.R1+insn.Reg(a.SizeArg-1)]
				c, isConst := lr.IsConst()
				if lr.Type != TypeScalar || !isConst {
					return argErr("buffer length (arg %d) must be a constant", a.SizeArg)
				}
				if c == 0 || c > uint64(size) {
					return argErr("buffer length %d outside (0, %d]", c, size)
				}
				size = int(c)
			}
			if size <= 0 {
				return argErr("invalid buffer size %d", size)
			}
			if r.Off < -StackSize || r.Off+int64(size) > 0 {
				return argErr("buffer [%d,%d) outside stack frame", r.Off, r.Off+int64(size))
			}
			if a.Init {
				if !st.Stack.initialized(r.Off, size) {
					return argErr("reads %d uninitialized stack bytes at off %d", size, r.Off)
				}
			} else {
				outs = append(outs, outBuf{off: r.Off, size: size})
			}
		case kernel.ArgHeapAddr:
			// Any extension-accessible address: the helper performs
			// its own validated access (heap sanitization, stack and
			// map-value bounds) through the runtime accessors.
			if r.Type == TypeInvalid {
				return argErr("uninitialized")
			}
			switch r.Type {
			case TypeScalar, TypeHeap, TypeStack, TypeMapValue:
			default:
				return argErr("expected extension-memory address, have %s", r.Type)
			}
		case kernel.ArgObj:
			if r.Type != TypeObj {
				return argErr("expected %s object, have %s", a.ObjKind, r.Type)
			}
			if r.MaybeNull {
				return argErr("object may be NULL; check it first")
			}
			if r.ObjKind != a.ObjKind {
				return argErr("expected %s object, have %s", a.ObjKind, r.ObjKind)
			}
			if _, held := st.refIndex(r.RefSite); !held {
				return argErr("reference from insn %d is not held (already released?)", r.RefSite)
			}
		default:
			return argErr("unhandled argument kind %d", a.Kind)
		}
	}

	// Release side effects.
	if spec.Releases > 0 {
		argReg := insn.Reg(insn.R1 + insn.Reg(spec.Releases-1))
		site := st.Regs[argReg].RefSite
		st.release(site)
		invalidateRefCopies(st, site)
	}

	// Lock discipline (§3.1): eBPF-compat extensions may hold at most one
	// lock; KFlex extensions may nest them.
	switch spec.LockOp {
	case kernel.LockAcquire:
		st.LockDepth++
		if v.cfg.Mode == ModeEBPF && st.LockDepth > 1 {
			return &Error{Insn: idx, Msg: "eBPF extensions cannot hold more than one lock"}
		}
	case kernel.LockRelease:
		if st.LockDepth == 0 {
			return &Error{Insn: idx, Msg: "unlock without a held lock"}
		}
		st.LockDepth--
	}

	for _, ob := range outs {
		st.Stack.markWritten(ob.off, ob.size)
	}

	// Caller-saved registers are clobbered; R6–R9 survive.
	for r := insn.R1; r <= insn.R5; r++ {
		st.Regs[r] = RegState{Type: TypeInvalid}
	}

	// Return value.
	switch spec.Ret.Kind {
	case kernel.RetScalar:
		st.Regs[insn.R0] = unknownScalar()
	case kernel.RetAcquiredObj:
		if _, dup := st.refIndex(idx); dup {
			return &Error{Insn: idx, Msg: fmt.Sprintf(
				"%s acquires a kernel resource monotonically: reference from this call site is still held (release it before the next iteration, §3.1)", spec.Name)}
		}
		st.acquire(ref{Site: idx, Kind: spec.Ret.ObjKind})
		st.Regs[insn.R0] = RegState{
			Type:      TypeObj,
			ObjKind:   spec.Ret.ObjKind,
			RefSite:   idx,
			MaybeNull: true,
		}
	case kernel.RetHeapPtr:
		st.Regs[insn.R0] = RegState{Type: TypeHeap, MaybeNull: !spec.Ret.NonNull}
	case kernel.RetMapValue:
		if m == nil {
			return &Error{Insn: idx, Msg: fmt.Sprintf(
				"%s returns a map value but takes no map", spec.Name)}
		}
		st.Regs[insn.R0] = RegState{Type: TypeMapValue, ValSize: int64(m.ValueSize()), MaybeNull: true}
	default:
		st.Regs[insn.R0] = unknownScalar()
	}
	return nil
}

// invalidateRefCopies clobbers every remaining copy of a released reference
// so stale pointers cannot be used after the release.
func invalidateRefCopies(st *state, site int) {
	for i := range st.Regs {
		if st.Regs[i].Type == TypeObj && st.Regs[i].RefSite == site {
			st.Regs[i] = RegState{Type: TypeInvalid}
		}
	}
	st.Stack.dropSpills(func(sp *spill) bool { return sp.reg.Type == TypeObj && sp.reg.RefSite == site })
}
