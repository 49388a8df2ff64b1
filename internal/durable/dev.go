// Package durable is the persistence engine behind the supervised
// application stores: an append-only, checksummed, segmented write-ahead
// log plus a snapshot/compaction protocol, recovered crash-consistently.
//
// The paper's practicality claim rests on extensions that can crash, be
// quarantined, and come back without losing the service they front. The
// supervisor (DESIGN.md §5) restores a reloaded extension from its
// write-through store; this package makes that store itself survive
// process death, and makes reload recovery O(delta): replay the records
// appended since the latest snapshot instead of re-pushing every key.
//
// Following SafeBPF's defense-in-depth framing, the storage layer is
// treated as a fault domain, not a trusted oracle: every write path is
// threaded through the deterministic fault-injection plan (torn writes,
// short writes, fsync failures, silent corruption), and recovery applies
// only the CRC-verified prefix of the log — a truncated or corrupt tail is
// detected and cleanly discarded, never silently replayed.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"kflex/internal/faultinject"
)

// File is one append-only log or snapshot file on a Dir.
type File interface {
	io.ReaderAt
	// Append writes p at the end of the file. A short write persists a
	// prefix and returns an error.
	Append(p []byte) (int, error)
	// Truncate discards everything at and beyond size (recovery cuts a
	// torn tail with it).
	Truncate(size int64) error
	// Size returns the current file length, including unsynced bytes.
	Size() (int64, error)
	// Sync makes appended bytes crash-durable.
	Sync() error
	Close() error
}

// Dir is the directory abstraction the WAL and snapshot engine write
// into. Two implementations exist: MemDir, a crash-modeling in-memory
// device used by tests and chaos suites, and OSDir over a real directory.
type Dir interface {
	Create(name string) (File, error)
	Open(name string) (File, error)
	List() ([]string, error)
	Remove(name string) error
	// Rename atomically replaces newname with oldname's file. The rename
	// is crash-durable only after SyncDir.
	Rename(oldname, newname string) error
	// SyncDir makes creations, removals, and renames crash-durable.
	SyncDir() error
}

// --- MemDir: crash-modeling in-memory device -----------------------------------

// memFile models one file with explicit durability state: one buffer
// plus a durable watermark. data[:synced] survives a crash; data[synced:]
// (appended but not fsynced) is lost — or, when the fault plan fires
// StoreTorn, torn to a prefix.
type memFile struct {
	name   string
	data   []byte
	synced int
	id     uint64
}

// MemDir is an in-memory Dir with crash semantics: appended bytes become
// durable only on Sync, directory operations only on SyncDir, and Crash
// discards everything volatile. A fault-injection plan makes the device
// adversarial — failed and short appends, failed fsyncs, silent byte
// corruption, torn tails at crash — all deterministically from the plan's
// seed, so every chaos recovery run is reproducible bit for bit.
type MemDir struct {
	mu     sync.Mutex
	files  map[string]*memFile // current (volatile) directory view
	synced map[string]*memFile // directory view as of the last SyncDir
	nextID uint64
	fault  *faultinject.Plan
}

// NewMemDir returns an empty in-memory device. plan may be nil (a
// well-behaved device).
func NewMemDir(plan *faultinject.Plan) *MemDir {
	return &MemDir{
		files:  make(map[string]*memFile),
		synced: make(map[string]*memFile),
		fault:  plan,
	}
}

// SetFaultPlan attaches a fault-injection plan; nil detaches it.
func (d *MemDir) SetFaultPlan(p *faultinject.Plan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = p
}

func (d *MemDir) Create(name string) (File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextID++
	f := &memFile{name: name, id: d.nextID}
	d.files[name] = f
	return &memHandle{dir: d, f: f}, nil
}

func (d *MemDir) Open(name string) (File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("durable: %s: %w", name, os.ErrNotExist)
	}
	return &memHandle{dir: d, f: f}, nil
}

func (d *MemDir) List() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (d *MemDir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("durable: %s: %w", name, os.ErrNotExist)
	}
	delete(d.files, name)
	return nil
}

func (d *MemDir) Rename(oldname, newname string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[oldname]
	if !ok {
		return fmt.Errorf("durable: %s: %w", oldname, os.ErrNotExist)
	}
	delete(d.files, oldname)
	f.name = newname
	d.files[newname] = f
	return nil
}

func (d *MemDir) SyncDir() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.synced = make(map[string]*memFile, len(d.files))
	for name, f := range d.files {
		d.synced[name] = f
	}
	return nil
}

// Crash simulates process/machine death: the directory reverts to its
// last SyncDir view, and every file loses its unsynced tail — unless the
// fault plan fires StoreTorn for the file, in which case a prefix of the
// tail (half, cut mid-record more often than not) survives, the classic
// torn write recovery must detect by CRC.
func (d *MemDir) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.files = make(map[string]*memFile, len(d.synced))
	for name, f := range d.synced {
		if tail := len(f.data) - f.synced; tail > 0 {
			if d.fault.Fire(faultinject.StoreTorn, f.id) {
				f.synced += tail / 2
			}
			f.data = f.data[:f.synced]
		}
		f.name = name
		d.files[name] = f
	}
	// Re-snapshot so a second Crash without intervening writes is a no-op.
	d.synced = make(map[string]*memFile, len(d.files))
	for name, f := range d.files {
		d.synced[name] = f
	}
}

// memHandle is an open handle on a memFile.
type memHandle struct {
	dir *MemDir
	f   *memFile
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.dir.mu.Lock()
	defer h.dir.mu.Unlock()
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Append(p []byte) (int, error) {
	h.dir.mu.Lock()
	defer h.dir.mu.Unlock()
	fault := h.dir.fault
	if fault.Fire(faultinject.StoreWrite, uint64(len(p))) {
		return 0, fmt.Errorf("durable: append %d bytes: %w", len(p), faultinject.ErrInjected)
	}
	if fault.Fire(faultinject.StoreShort, uint64(len(p))) {
		n := len(p) / 2
		h.f.data = append(grow(h.f.data, n), p[:n]...)
		return n, fmt.Errorf("durable: short write %d/%d bytes: %w", n, len(p), faultinject.ErrInjected)
	}
	start := len(h.f.data)
	h.f.data = append(grow(h.f.data, len(p)), p...)
	if fault.Fire(faultinject.StoreCorrupt, uint64(len(p))) {
		// Silent corruption: flip one bit mid-write; the append still
		// reports success. Recovery must catch this by CRC.
		h.f.data[start+len(p)/2] ^= 0x40
	}
	return len(p), nil
}

func (h *memHandle) Truncate(size int64) error {
	h.dir.mu.Lock()
	defer h.dir.mu.Unlock()
	if size >= int64(len(h.f.data)) {
		return nil
	}
	h.f.data = h.f.data[:size]
	h.f.synced = min(h.f.synced, int(size))
	return nil
}

func (h *memHandle) Size() (int64, error) {
	h.dir.mu.Lock()
	defer h.dir.mu.Unlock()
	return int64(len(h.f.data)), nil
}

func (h *memHandle) Sync() error {
	h.dir.mu.Lock()
	defer h.dir.mu.Unlock()
	if h.dir.fault.Fire(faultinject.StoreSync, h.f.id) {
		// A failed fsync leaves the buffered bytes volatile: they are
		// still readable (page cache) but will not survive a crash.
		return fmt.Errorf("durable: fsync %s: %w", h.f.name, faultinject.ErrInjected)
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error { return nil }

// --- OSDir: real directory ------------------------------------------------------

// OSDir is a Dir over a real directory — the production device. No
// deployment or benchmark workload in this repository opens one yet; the
// store tests that need only the Dir interface run on it beside MemDir.
// Fault injection lives in MemDir; OSDir is a plain pass-through.
type OSDir struct {
	path string
}

// NewOSDir opens (creating if needed) a real directory as a Dir.
func NewOSDir(path string) (*OSDir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	return &OSDir{path: path}, nil
}

func (d *OSDir) Create(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(d.path, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (d *OSDir) Open(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(d.path, name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (d *OSDir) List() ([]string, error) {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *OSDir) Remove(name string) error {
	return os.Remove(filepath.Join(d.path, name))
}

func (d *OSDir) Rename(oldname, newname string) error {
	return os.Rename(filepath.Join(d.path, oldname), filepath.Join(d.path, newname))
}

func (d *OSDir) SyncDir() error {
	f, err := os.Open(d.path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

type osFile struct {
	f *os.File
}

func (o *osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

func (o *osFile) Append(p []byte) (int, error) {
	if _, err := o.f.Seek(0, io.SeekEnd); err != nil {
		return 0, err
	}
	return o.f.Write(p)
}

func (o *osFile) Truncate(size int64) error { return o.f.Truncate(size) }

func (o *osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (o *osFile) Sync() error  { return o.f.Sync() }
func (o *osFile) Close() error { return o.f.Close() }
