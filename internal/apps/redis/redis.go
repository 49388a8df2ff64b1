// Package redis implements the Redis deployments of §5.1 and §5.2:
//
//   - KeyDB: the multi-threaded user-space baseline (Redis itself is
//     single-threaded; the paper compares against KeyDB for fairness),
//     paying the full TCP stack plus a context switch per request;
//   - KFlex: GET/SET processed by an extension at the sk_skb hook — all
//     requests still traverse the kernel TCP stack (§5.1 explains this is
//     why Redis's speedup is smaller than Memcached's), but skip the
//     socket wakeup, context switch, and reply syscall;
//   - ZAdd systems (Figure 6): single-threaded ZADD processing, user space
//     under Redis's global hash-table lock vs. the KFlex extension that
//     combines a member table with a heap-allocated skip list.
//
// Requests use a RESP-style wire encoding. The extension's parse helper
// reads it for real; the user-space baselines are charged netsim's
// constants calibrated from the real handler.
package redis

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"kflex"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/offload"
	"kflex/internal/ds"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/workload"
)

// Key/value geometry matches §5: 32 B keys, 64 B values.
const (
	KeySize   = kvprog.KeySize
	ValueSize = kvprog.ValueSize
)

// The IDs the codec's helpers (redis_parse, redis_reply, redis_fill)
// register under.
const (
	helperRespParse int32 = 0x3101
	helperRespReply int32 = 0x3102
	helperRespFill  int32 = 0x3103
)

// --- RESP wire format --------------------------------------------------------------

// EncodeCommand renders a RESP array of bulk strings.
func EncodeCommand(args ...[]byte) []byte {
	out := append(strconv.AppendInt([]byte{'*'}, int64(len(args)), 10), '\r', '\n')
	for _, a := range args {
		out = appendBulk(out, a)
	}
	return out
}

// bulkHeader appends the "$<n>\r\n" that precedes an n-byte bulk string;
// "\r\n" follows the bytes.
func bulkHeader(dst []byte, n int) []byte {
	return append(strconv.AppendInt(append(dst, '$'), int64(n), 10), '\r', '\n')
}

func appendBulk(dst, arg []byte) []byte {
	return append(append(bulkHeader(dst, len(arg)), arg...), '\r', '\n')
}

var cmdGet, cmdSet = []byte("GET"), []byte("SET")

func appendGet(dst, key []byte) []byte {
	return appendBulk(appendBulk(append(dst, "*2\r\n"...), cmdGet), key)
}

func appendSet(dst, key, value []byte) []byte {
	return appendBulk(appendBulk(appendBulk(append(dst, "*3\r\n"...), cmdSet), key), value)
}

// ParseCommand decodes a RESP array of bulk strings.
func ParseCommand(frame []byte) ([][]byte, error) { return parseCommand(frame, nil) }

// parseCommand is ParseCommand appending the bulk strings to args, so a
// caller on the request path can supply stack storage and parse without
// allocating.
func parseCommand(frame []byte, args [][]byte) ([][]byte, error) {
	if len(frame) < 4 || frame[0] != '*' {
		return nil, fmt.Errorf("redis: not a RESP array")
	}
	pos := 1
	readLine := func() ([]byte, error) {
		start := pos
		for pos+1 < len(frame) {
			if frame[pos] == '\r' && frame[pos+1] == '\n' {
				line := frame[start:pos]
				pos += 2
				return line, nil
			}
			pos++
		}
		return nil, fmt.Errorf("redis: unterminated line")
	}
	nLine, err := readLine()
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(string(nLine))
	if err != nil || n < 1 || n > 16 {
		return nil, fmt.Errorf("redis: bad array length %q", nLine)
	}
	args = slices.Grow(args[:0], n)
	for i := 0; i < n; i++ {
		if pos >= len(frame) || frame[pos] != '$' {
			return nil, fmt.Errorf("redis: expected bulk string")
		}
		pos++
		lLine, err := readLine()
		if err != nil {
			return nil, err
		}
		l, err := strconv.Atoi(string(lLine))
		if err != nil || l < 0 || pos+l+2 > len(frame) {
			return nil, fmt.Errorf("redis: bad bulk length %q", lLine)
		}
		args = append(args, frame[pos:pos+l])
		pos += l + 2
	}
	return args, nil
}

// parseKV decodes a GET or SET frame under offload.Codec.Parse's rule:
// KeySize-byte keys, SET values of at most ValueSize, anything else OpNone.
func parseKV(frame []byte) (op int, key, value []byte) {
	var argv [3][]byte // GET key / SET key value, without allocating
	cmd, err := parseCommand(frame, argv[:0])
	if err != nil || len(cmd) < 2 || len(cmd[1]) != KeySize {
		return kvprog.OpNone, nil, nil
	}
	switch {
	case len(cmd) == 2 && string(cmd[0]) == "GET":
		return kvprog.OpGet, cmd[1], nil
	case len(cmd) == 3 && string(cmd[0]) == "SET" && len(cmd[2]) <= ValueSize:
		return kvprog.OpSet, cmd[1], cmd[2]
	}
	return kvprog.OpNone, nil, nil
}

// Codec is Redis's GET/SET path as the shared offload front end sees it:
// RESP at the sk_skb hook. Every request traverses the kernel TCP stack
// (§5.1 explains this is why Redis's speedup is smaller than Memcached's);
// served at the hook it skips the socket wakeup, context switch, and reply
// syscall.
var Codec = offload.Codec{
	Name: "redis",
	Hook: kflex.HookSkSkb,
	Prog: kvprog.Options{
		ParseHelper: helperRespParse,
		ReplyHelper: helperRespReply,
		FillHelper:  helperRespFill,
		RetServed:   Served,
		RetPass:     kernel.SkPass,
		RetErr:      kernel.SkDrop,
	},
	Parse: parseKV,
	// A parsed frame is "*2…" (GET key) or "*3…" (SET key value).
	IsSet:      func(frame []byte) bool { return frame[1] == '3' },
	AppendGet:  appendGet,
	AppendSet:  appendSet,
	HitHeader:  bulkHeader,
	HitTrailer: "\r\n",
	Miss:       "$-1\r\n",
	Stored:     "+OK\r\n",
	Err:        "-ERR\r\n",
	PathNs: func(set, offloaded bool) float64 {
		switch {
		case offloaded:
			return netsim.SkSkbTCP
		case set:
			return netsim.UserspaceTCP + netsim.RedisSetNs
		}
		return netsim.UserspaceTCP + netsim.RedisGetNs
	},
}

// --- Shared harness pieces and KeyDB, the multi-threaded user-space baseline ---------

// Config parameterizes one Redis system.
type Config = offload.Config

// DefaultConfig mirrors §5.1.
func DefaultConfig(mix workload.Mix) Config {
	return Config{Mix: mix, ValueSize: ValueSize, Seed: 11, Preload: true}
}

// KeyDB is the user-space server: every request pays the full TCP stack
// and the RESP handler's calibrated work (netsim.RedisGetNs, RedisSetNs).
type KeyDB = offload.UserSpace

// NewKeyDB builds the baseline.
func NewKeyDB(cfg Config) *KeyDB { return offload.NewUserSpace(&Codec, cfg) }

// --- KFlex Redis at sk_skb -----------------------------------------------------------

// Served is the sk_skb return code meaning "handled at the hook".
const Served = 3

// NewKFlex loads the Redis extension, serving GET/SET at the sk_skb hook
// (§5.1: ~3100 LoC in the paper's C implementation; the structure is the
// shared KV program at sk_skb). The supervised deployment is
// offload.NewSupervised over Codec.
func NewKFlex(cfg Config, servers int) (*offload.KFlex, error) {
	return offload.NewKFlex(&Codec, cfg, servers, false)
}

// --- ZADD (Figure 6) -------------------------------------------------------------------

// ZAddUser is the single-threaded user-space ZADD server: Redis holds a
// global lock on the hash map for every ZADD (§5.2), so one thread serves
// them all. Each pays the full TCP stack and netsim.ZAddNs, the calibrated
// parse and insert; nothing reads the sorted set, so none is kept.
type ZAddUser struct{}

// Serve implements sim.System.
func (ZAddUser) Serve(cpu int, now float64) float64 { return netsim.UserspaceTCP + netsim.ZAddNs }

// ZAddKFlex is the offloaded ZADD of §5.2.
type ZAddKFlex struct {
	off *ds.Offloaded
	gen *workload.Generator
	r   *rand.Rand
	// Errors counts ZADDs the extension failed to serve; they are charged
	// the user-space path instead.
	Errors uint64
}

// NewZAddKFlex loads the ZADD extension (hash map + heap skip list).
func NewZAddKFlex(cfg Config) (*ZAddKFlex, error) {
	off, err := ds.LoadSpec(kflex.NewRuntime(), ds.KindZAdd, func(s *kflex.Spec) {
		s.Name = "kflex-zadd"
		s.FaultPlan = cfg.FaultPlan
		s.CancelThreshold = cfg.CancelThreshold
	})
	if err != nil {
		return nil, err
	}
	return &ZAddKFlex{
		off: off,
		gen: workload.NewGenerator(cfg.Seed, workload.Mix{GetPct: 0}),
		r:   rand.New(rand.NewSource(cfg.Seed + 1)),
	}, nil
}

// Serve implements sim.System: ZADDs run over TCP at sk_skb, like the rest
// of KFlex-Redis.
func (z *ZAddKFlex) Serve(cpu int, now float64) float64 {
	req := z.gen.Next()
	res, err := z.off.Op(ds.OpUpdate, req.Key, z.r.Uint64()%(1<<16))
	if err != nil {
		z.Errors++
		return ZAddUser{}.Serve(cpu, now)
	}
	return netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls) + netsim.SkSkbTCP
}

// Close releases the extension.
func (z *ZAddKFlex) Close() { z.off.Close() }
