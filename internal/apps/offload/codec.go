// Package offload is the one front end both offloaded servers share. The
// paper offloads Memcached and Redis GET/SET with the same extension
// structure and the same offload-miss fallback (§5.1); kvprog builds the
// one program, and this package owns everything around it: the KV store
// contract and the sharded in-memory Store, the per-CPU Worker, the bare
// deployment (KFlex: load, populate, Serve), the supervised one
// (Supervised: write-through, dirty set, resync, fallback) and the
// user-space baseline the figures compare them with. An application
// contributes a Codec — its wire format, helpers, hook and path costs —
// and nothing else.
package offload

import (
	"encoding/binary"
	"fmt"

	"kflex"
	"kflex/internal/apps/kvprog"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
)

// Codec is what an application supplies to be offloaded.
type Codec struct {
	// Name labels the app: its extension loads as "kflex-"+Name and its
	// helpers register as Name+"_parse" and Name+"_reply".
	Name string
	// Hook is the attach point. Prog carries the IDs the app's parse and
	// reply helpers register under and the hook's return codes;
	// Prog.RetServed is the code that means "answered at the hook",
	// anything else is an offload miss.
	Hook *kernel.Hook
	Prog kvprog.Options

	// Parse decodes a request frame into a kvprog op (OpGet, OpSet, or
	// OpNone for anything else), the key and the SET value, aliasing frame
	// and allocating nothing. It accepts exactly what the extension heap
	// can hold — KeySize-byte keys, values of at most kvprog.ValueSize —
	// and the parse helper, the front end and the fallback handler all go
	// through it, so the authoritative store never keeps an entry a resync
	// could not replay.
	Parse func(frame []byte) (op int, key, value []byte)
	// IsSet tells a SET from a GET by the first bytes of a frame Parse
	// accepted; the reply helper picks Stored or Miss with it instead of
	// parsing the request a second time.
	IsSet func(frame []byte) bool
	// AppendGet and AppendSet append a request frame to dst.
	AppendGet func(dst, key []byte) []byte
	AppendSet func(dst, key, value []byte) []byte
	// A GET hit is HitHeader(dst, n), the n value bytes, then HitTrailer
	// (split so the reply helper reads the value from extension memory
	// straight into place). Miss, Stored and Err are the other replies.
	HitHeader         func(dst []byte, n int) []byte
	HitTrailer        string
	Miss, Stored, Err string
	// PathNs is the modelled cost of one GET or SET outside the extension,
	// from netsim's constants: the kernel path stages it pays when served
	// at the hook (offloaded), or those plus the handler's calibrated work
	// when the user-space server answers it.
	PathNs func(set, offloaded bool) float64
}

// AppendHit appends the GET-hit reply carrying value.
func (c *Codec) AppendHit(dst, value []byte) []byte {
	return append(append(c.HitHeader(dst, len(value)), value...), c.HitTrailer...)
}

// RegisterHelpers installs the codec's two packet helpers on rt: the parse
// helper decodes the request frame into the program's stack buffers (the
// role Listing 1's check/get helpers play), the reply helper builds the
// response frame from extension memory. Both are ordinary kernel helpers
// with verified contracts.
func (c *Codec) RegisterHelpers(rt *kflex.Runtime) {
	r := rt.Kernel().Helpers
	if _, dup := r.Lookup(c.Prog.ParseHelper); dup {
		return
	}
	r.MustRegister(&kernel.HelperSpec{
		ID:   c.Prog.ParseHelper,
		Name: c.Name + "_parse",
		Args: []kernel.Arg{
			{Kind: kernel.ArgCtx},
			{Kind: kernel.ArgStackBuf, Size: kvprog.KeySize},   // key out
			{Kind: kernel.ArgStackBuf, Size: kvprog.ValueSize}, // value out
		},
		Ret: kernel.Ret{Kind: kernel.RetScalar},
		// Returns op | valLen<<8. What the hook was invoked for is the
		// event's type: packet bytes are a client's and only ever parse to a
		// GET, a SET or nothing.
		Impl: func(hc *kernel.HelperCtx, args [5]uint64) (uint64, error) {
			var pkt *netsim.Packet
			switch ev := hc.Event.(type) {
			case *netsim.Packet:
				pkt = ev
			case initEvent:
				return kvprog.OpInit, nil
			default:
				return kvprog.OpNone, nil
			}
			op, key, value := c.Parse(pkt.Data)
			if op == kvprog.OpNone {
				return kvprog.OpNone, nil
			}
			if err := hc.Write(args[1], key); err != nil {
				return 0, err
			}
			if op == kvprog.OpSet {
				if err := kvprog.WriteValue(hc, args[2], value); err != nil {
					return 0, err
				}
			}
			return uint64(op) | uint64(len(value))<<8, nil
		},
	})
	r.MustRegister(&kernel.HelperSpec{
		ID:   c.Prog.ReplyHelper,
		Name: c.Name + "_reply",
		Args: []kernel.Arg{
			{Kind: kernel.ArgCtx},
			{Kind: kernel.ArgHeapAddr}, // value address (0: miss/stored)
			{Kind: kernel.ArgScalar},   // value length
		},
		Ret: kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(hc *kernel.HelperCtx, args [5]uint64) (uint64, error) {
			pkt, ok := hc.Event.(*netsim.Packet)
			if !ok {
				return 0, nil
			}
			if args[1] == 0 {
				if c.IsSet(pkt.Data) {
					pkt.Reply = append(pkt.Reply[:0], c.Stored...)
				} else {
					pkt.Reply = append(pkt.Reply[:0], c.Miss...)
				}
				return 0, nil
			}
			n := min(args[2], kvprog.ValueSize) // as AppendValue clamps it
			reply, err := kvprog.AppendValue(hc, c.HitHeader(pkt.Reply[:0], int(n)), args[1], n)
			if err != nil {
				return 0, err
			}
			pkt.Reply = append(reply, c.HitTrailer...)
			return 0, nil
		},
	})
}

// Handle serves one frame from kv alone, as the user-space baselines do.
func (c *Codec) Handle(kv KV, frame, reply []byte) []byte {
	op, key, value := c.Parse(frame)
	if op == kvprog.OpSet {
		kv.Set(key, value)
	}
	return c.answer(kv, op, key, reply)
}

// answer is the user-space reply to a parsed request whose SET, if it is
// one, kv already holds.
func (c *Codec) answer(kv KV, op int, key, reply []byte) []byte {
	switch op {
	case kvprog.OpGet:
		if v := kv.Get(key); v != nil {
			return c.AppendHit(reply[:0], v)
		}
		return append(reply[:0], c.Miss...)
	case kvprog.OpSet:
		return append(reply[:0], c.Stored...)
	}
	return append(reply[:0], c.Err...)
}

// initEvent is the event a deployment runs a fresh heap's hook with, once:
// the parse helper answers it with kvprog.OpInit and the program allocates
// its bucket array. No packet carries it.
type initEvent struct{}

// conn is one driver's packet and hook context, reused across requests.
type conn struct {
	pkt netsim.Packet
	ctx []byte
}

func (c *Codec) newConn() conn { return conn{ctx: make([]byte, c.Hook.CtxSize)} }

func (cn *conn) arm(frame []byte) {
	cn.pkt.Data, cn.pkt.Reply = frame, cn.pkt.Reply[:0]
	binary.LittleEndian.PutUint32(cn.ctx, uint32(len(frame)))
}

// invoke runs the hook on h for event and requires the served code.
func (c *Codec) invoke(h *kflex.Handle, event any, ctx []byte) (kflex.Result, error) {
	res, err := h.Run(event, ctx)
	if err == nil && !c.served(res) {
		err = fmt.Errorf("%s: extension returned %d", c.Name, res.Ret)
	}
	return res, err
}

// run executes one frame on h; the reply is in cn.pkt.Reply.
func (c *Codec) run(h *kflex.Handle, cn *conn, frame []byte) (kflex.Result, error) {
	cn.arm(frame)
	return c.invoke(h, &cn.pkt, cn.ctx)
}

func (c *Codec) served(res kflex.Result) bool { return res.Ret == uint64(c.Prog.RetServed) }

// push SETs every pair each yields (KV.Range's shape) through h and reports
// how many the extension stored.
func (c *Codec) push(h *kflex.Handle, cn *conn, each func(func(key, value []byte) error) error) (n int, err error) {
	var frame []byte
	err = each(func(key, value []byte) error {
		frame = c.AppendSet(frame[:0], key, value)
		_, err := c.run(h, cn, frame)
		if err == nil {
			n++
		}
		return err
	})
	return n, err
}

// populate brings a fresh heap into service through h: the init event, then
// every pair of each.
func (c *Codec) populate(h *kflex.Handle, cn *conn, each func(func(key, value []byte) error) error) (int, error) {
	if _, err := c.invoke(h, initEvent{}, cn.ctx); err != nil {
		return 0, err
	}
	return c.push(h, cn, each)
}
