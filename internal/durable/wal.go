package durable

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Record ops.
const (
	// OpSet stores Value under Key.
	OpSet = byte(1)
	// OpDelete removes Key.
	OpDelete = byte(2)
)

// Record is one decoded WAL record: a single acknowledged mutation.
type Record struct {
	Seq   uint64
	Op    byte
	Key   []byte
	Value []byte
}

// Record wire format, little-endian:
//
//	crc  u32   Castagnoli CRC over everything after this field
//	seq  u64   store sequence number, strictly +1 per record
//	op   u8    OpSet | OpDelete
//	klen u32   key length
//	vlen u32   value length
//	key, value bytes
//
// The CRC is the crash-consistency contract: recovery applies a record
// only after its CRC verifies, so a torn or corrupt tail is detected and
// discarded, never silently replayed.
const recHeaderSize = 4 + 8 + 1 + 4 + 4

// Sanity bounds so a corrupt length field cannot drive a huge allocation
// during replay (the fuzz target hammers exactly this).
const (
	maxKeyLen   = 1 << 20
	maxValueLen = 1 << 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeRecord appends the wire encoding of r to dst and returns it.
func EncodeRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = slices.Grow(dst, recHeaderSize+len(r.Key)+len(r.Value))
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[4:], r.Seq)
	hdr[12] = r.Op
	binary.LittleEndian.PutUint32(hdr[13:], uint32(len(r.Key)))
	binary.LittleEndian.PutUint32(hdr[17:], uint32(len(r.Value)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Key...)
	dst = append(dst, r.Value...)
	crc := crc32.Checksum(dst[start+4:], crcTable)
	binary.LittleEndian.PutUint32(dst[start:], crc)
	return dst
}

// DecodeRecord decodes and CRC-verifies the record at the start of b,
// returning the record and its encoded length. It fails — without
// panicking, whatever the bytes — on short input, oversized lengths, an
// unknown op, or a CRC mismatch. The returned key/value alias b.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recHeaderSize {
		return Record{}, 0, fmt.Errorf("durable: record header truncated: %d bytes", len(b))
	}
	klen := binary.LittleEndian.Uint32(b[13:])
	vlen := binary.LittleEndian.Uint32(b[17:])
	if klen > maxKeyLen || vlen > maxValueLen {
		return Record{}, 0, fmt.Errorf("durable: record lengths %d/%d out of bounds", klen, vlen)
	}
	total := recHeaderSize + int(klen) + int(vlen)
	if len(b) < total {
		return Record{}, 0, fmt.Errorf("durable: record body truncated: have %d bytes, need %d", len(b), total)
	}
	if crc := crc32.Checksum(b[4:total], crcTable); crc != binary.LittleEndian.Uint32(b) {
		return Record{}, 0, fmt.Errorf("durable: record CRC mismatch")
	}
	op := b[12]
	if op != OpSet && op != OpDelete {
		return Record{}, 0, fmt.Errorf("durable: unknown record op %d", op)
	}
	return Record{
		Seq:   binary.LittleEndian.Uint64(b[4:]),
		Op:    op,
		Key:   b[recHeaderSize : recHeaderSize+int(klen)],
		Value: b[recHeaderSize+int(klen) : total],
	}, total, nil
}

// Segment files are named wal-<first seq, 16 hex>.log so lexical order is
// replay order; snapshots are snap-<seq>.snap (see snapshot.go).
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	segMagic   = "KFWALSG1"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	snapTmp    = "snap.tmp"
)

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

// seqFile is one segment or snapshot on a Dir and the sequence number its
// name carries.
type seqFile struct {
	name string
	seq  uint64
}

// listFiles returns dir's files named <prefix><seq, hex><suffix> in
// ascending sequence order.
func listFiles(dir Dir, prefix, suffix string) ([]seqFile, error) {
	names, err := dir.List()
	if err != nil {
		return nil, err
	}
	var files []seqFile
	for _, name := range names {
		if seq, ok := parseName(name, prefix, suffix); ok {
			files = append(files, seqFile{name, seq})
		}
	}
	slices.SortFunc(files, func(a, b seqFile) int { return cmp.Compare(a.seq, b.seq) })
	return files, nil
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	hex, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if hex, ok = strings.CutSuffix(hex, suffix); !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	return seq, err == nil
}

// wal is the segmented append-only log of one Store.
type wal struct {
	dir      Dir
	segBytes int64

	cur      File
	curName  string
	curSize  int64
	unsynced bool

	// rollSyncErrs counts failed fsyncs of a segment a roll was about to
	// close; Store.Metrics folds it into SyncErrs.
	rollSyncErrs uint64
}

// openWAL binds to dir's newest segment (or none; the first append
// creates one). Recovery has run first, so that segment's header verified.
func openWAL(dir Dir, segBytes int64) (*wal, error) {
	w := &wal{dir: dir, segBytes: segBytes}
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		newest := segs[len(segs)-1].name
		f, err := dir.Open(newest)
		if err != nil {
			return nil, err
		}
		size, err := f.Size()
		if err != nil {
			return nil, err
		}
		w.cur, w.curName, w.curSize = f, newest, size
	}
	return w, nil
}

// append writes one encoded record, rolling to a new segment when the
// current one is full. firstSeq names the new segment if a roll happens.
// segBytes is a soft limit: a roll that cannot make the closing segment
// durable is put off (see roll) and the record lands in the current one.
func (w *wal) append(enc []byte, firstSeq uint64) error {
	if w.cur == nil || w.curSize+int64(len(enc)) > w.segBytes {
		if err := w.roll(firstSeq); err != nil {
			return err
		}
	}
	n, err := w.cur.Append(enc)
	w.curSize += int64(n)
	if err != nil {
		// A short or failed append leaves a torn tail in the segment.
		// Subsequent appends must not land after it — they would be
		// unreachable at replay (the CRC scan stops at the tear). Cut the
		// tail now; if the cut itself fails, force a roll so the next
		// record starts a fresh segment.
		w.curSize -= int64(n)
		if terr := w.cur.Truncate(w.curSize); terr != nil {
			w.cur.Close()
			w.cur = nil
		}
		return err
	}
	w.unsynced = true
	return nil
}

// roll finishes the current segment and starts a new one at firstSeq.
//
// The closing segment must be durable before anything is written past
// it: a record synced into the next segment is only reachable at replay
// through an unbroken sequence chain, so an unsynced tail left behind in
// the closed segment would, at a crash, take every later — synced,
// acknowledged — record with it. When the fsync fails the roll is
// therefore put off: the failure is counted, the current segment stays
// open past its soft limit so that the next successful sync covers the
// whole tail, and the next append tries the roll again.
func (w *wal) roll(firstSeq uint64) error {
	if w.cur != nil {
		if err := w.cur.Sync(); err != nil {
			w.rollSyncErrs++
			return nil
		}
		w.cur.Close()
		w.cur = nil
	}
	name := segName(firstSeq)
	f, err := w.dir.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Append([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := w.dir.SyncDir(); err != nil {
		f.Close()
		return err
	}
	w.cur, w.curName, w.curSize = f, name, int64(len(segMagic))
	w.unsynced = true
	return nil
}

// sync makes appended records crash-durable.
func (w *wal) sync() error {
	if w.cur == nil || !w.unsynced {
		return nil
	}
	if err := w.cur.Sync(); err != nil {
		return err
	}
	w.unsynced = false
	return nil
}

func (w *wal) close() {
	if w.cur != nil {
		w.cur.Sync()
		w.cur.Close()
		w.cur = nil
	}
}

// replayResult reports what a log scan found.
type replayResult struct {
	replayed  uint64 // records applied
	lastSeq   uint64 // last applied sequence
	bytes     int64  // encoded size of the records applied
	tornBytes int64  // bytes discarded at the tear
	discarded int    // whole later segments discarded after a tear
}

// replay scans every segment in order and applies, via fn, each
// CRC-verified record with fromSeq < seq, in strict +1 sequence order.
// The scan stops at the first tear — a CRC mismatch, truncated record,
// bad segment magic, or sequence discontinuity — cuts the torn tail from
// the device, and discards any later segments (they are beyond the
// verified prefix and must not be silently replayed).
func replay(dir Dir, fromSeq uint64, fn func(Record)) (replayResult, error) {
	res := replayResult{lastSeq: fromSeq}
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil {
		return res, err
	}
	for i, seg := range segs {
		torn, err := replaySegment(dir, seg.name, &res, fn)
		if err != nil {
			return res, err
		}
		if torn {
			// Everything after the tear is unverifiable: drop it.
			for _, later := range segs[i+1:] {
				if err := dir.Remove(later.name); err == nil {
					res.discarded++
				}
			}
			dir.SyncDir()
			break
		}
	}
	return res, nil
}

// replaySegment scans one segment; it reports torn=true when it hit a
// tear and cut the tail.
func replaySegment(dir Dir, name string, res *replayResult, fn func(Record)) (torn bool, err error) {
	f, err := dir.Open(name)
	if err != nil {
		return false, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return false, err
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return false, err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		// The segment header itself is torn (crash during roll): the
		// whole file is the tail. Remove it rather than cut it to nothing,
		// so no append ever lands in a segment without a header.
		res.tornBytes += int64(len(data))
		return true, dir.Remove(name)
	}
	off := len(segMagic)
	for off < len(data) {
		rec, n, derr := DecodeRecord(data[off:])
		if derr != nil {
			res.tornBytes += int64(len(data) - off)
			f.Truncate(int64(off))
			return true, nil
		}
		// Sequence discipline: within the verified prefix, sequence
		// numbers are strictly monotonic. A record at or below fromSeq is
		// a compaction leftover (skip); a gap or regression beyond the
		// expected next seq means the log is inconsistent — treat as torn.
		switch {
		case rec.Seq <= res.lastSeq:
			// Already covered by the snapshot or a previous segment.
		case rec.Seq == res.lastSeq+1:
			fn(rec)
			res.replayed++
			res.bytes += int64(n)
			res.lastSeq = rec.Seq
		default:
			res.tornBytes += int64(len(data) - off)
			f.Truncate(int64(off))
			return true, nil
		}
		off += n
	}
	return false, nil
}

// compact removes segments made redundant by a snapshot at snapSeq: a
// segment is removable once the next segment starts at or below
// snapSeq+1 (every record it holds is then ≤ snapSeq).
func compact(dir Dir, snapSeq uint64, keep string) (removed int) {
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil {
		return 0
	}
	for i, seg := range segs {
		if seg.name == keep {
			continue
		}
		if i+1 < len(segs) && segs[i+1].seq <= snapSeq+1 {
			if dir.Remove(seg.name) == nil {
				removed++
			}
		}
	}
	if removed > 0 {
		dir.SyncDir()
	}
	return removed
}
