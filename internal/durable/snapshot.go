package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot wire format, little-endian:
//
//	magic  8 bytes "KFSNAPS1"
//	seq    u64    store sequence the snapshot covers
//	count  u64    number of key/value pairs
//	pairs  count × { klen u32, vlen u32, key, value }   (sorted by key)
//	crc    u32    Castagnoli CRC over everything before it
//
// The write protocol is the classic atomic-publish dance: write to a temp
// name, fsync the file, rename to snap-<seq>.snap, fsync the directory.
// A crash at any point leaves either the previous snapshot set intact or
// the new snapshot fully published; recovery validates the whole-file CRC
// and falls back to the next-older snapshot (and a longer log replay)
// when the newest is corrupt.
const snapMagic = "KFSNAPS1"

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

// writeSnapshot publishes a snapshot of the sorted view v at seq and
// returns its name.
func writeSnapshot(dir Dir, seq uint64, v view) (string, error) {
	size := len(snapMagic) + 8 + 8 + 4
	for i := range v.ents {
		size += 8 + int(v.ents[i].klen) + len(v.ents[i].value(v.arena))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v.ents)))
	for i := range v.ents {
		k, val := v.ents[i].key(v.arena), v.ents[i].value(v.arena)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
		buf = append(buf, k...)
		buf = append(buf, val...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))

	f, err := dir.Create(snapTmp)
	if err != nil {
		return "", err
	}
	if _, err := f.Append(buf); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	f.Close()
	name := snapName(seq)
	if err := dir.Rename(snapTmp, name); err != nil {
		return "", err
	}
	if err := dir.SyncDir(); err != nil {
		return "", err
	}
	return name, nil
}

// readSnapshot CRC-verifies one snapshot file, hands fn each pair and
// returns the file's sequence and size; the slices alias a buffer fn must
// copy out of.
func readSnapshot(dir Dir, name string, fn func(key, value []byte)) (seq uint64, size int64, err error) {
	f, err := dir.Open(name)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	size, err = f.Size()
	if err != nil {
		return 0, 0, err
	}
	if size < int64(len(snapMagic))+8+8+4 {
		return 0, 0, fmt.Errorf("durable: snapshot %s truncated (%d bytes)", name, size)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return 0, 0, err
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return 0, 0, fmt.Errorf("durable: snapshot %s CRC mismatch", name)
	}
	if string(body[:len(snapMagic)]) != snapMagic {
		return 0, 0, fmt.Errorf("durable: snapshot %s bad magic", name)
	}
	seq = binary.LittleEndian.Uint64(body[8:])
	count := binary.LittleEndian.Uint64(body[16:])
	off := uint64(24)
	for i := uint64(0); i < count; i++ {
		if off+8 > uint64(len(body)) {
			return 0, 0, fmt.Errorf("durable: snapshot %s pair header truncated", name)
		}
		klen := binary.LittleEndian.Uint32(body[off:])
		vlen := binary.LittleEndian.Uint32(body[off+4:])
		off += 8
		if klen > maxKeyLen || vlen > maxValueLen || off+uint64(klen)+uint64(vlen) > uint64(len(body)) {
			return 0, 0, fmt.Errorf("durable: snapshot %s pair out of bounds", name)
		}
		key := body[off : off+uint64(klen)]
		val := body[off+uint64(klen) : off+uint64(klen)+uint64(vlen)]
		fn(key, val)
		off += uint64(klen) + uint64(vlen)
	}
	return seq, size, nil
}
