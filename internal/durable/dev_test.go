package durable

import (
	"io"
	"testing"

	"kflex/internal/faultinject"
)

// TestMemFileCrashModel drives the MemDir file model (one buffer plus a
// durable watermark) through what the persisted/volatile pair it replaced
// promised: each case says what the file reads as after its steps, and
// what is left of it after a crash.
func TestMemFileCrashModel(t *testing.T) {
	appendStr := func(t *testing.T, f File, s string) {
		t.Helper()
		if n, err := f.Append([]byte(s)); err != nil || n != len(s) {
			t.Fatalf("Append(%q): n=%d err=%v", s, n, err)
		}
	}
	sync := func(t *testing.T, f File) {
		t.Helper()
		if err := f.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	cases := []struct {
		name  string
		steps func(t *testing.T, d *MemDir, f File, plan *faultinject.Plan)
		// reads is the file's contents after steps; crashed its contents
		// after one more (fault-free) Crash.
		reads, crashed string
	}{
		{
			name: "unsynced tail is lost at crash",
			steps: func(t *testing.T, d *MemDir, f File, _ *faultinject.Plan) {
				appendStr(t, f, "aaaa")
				sync(t, f)
				appendStr(t, f, "bbbb")
			},
			reads: "aaaabbbb", crashed: "aaaa",
		},
		{
			name: "synced appends accumulate",
			steps: func(t *testing.T, d *MemDir, f File, _ *faultinject.Plan) {
				appendStr(t, f, "aa")
				sync(t, f)
				appendStr(t, f, "bb")
				sync(t, f)
				sync(t, f) // nothing new: a no-op
			},
			reads: "aabb", crashed: "aabb",
		},
		{
			name: "torn crash keeps half the tail, durably",
			steps: func(t *testing.T, d *MemDir, f File, plan *faultinject.Plan) {
				appendStr(t, f, "aaaa")
				sync(t, f)
				appendStr(t, f, "bbbbbb")
				plan.FailNth(faultinject.StoreTorn, 1, 1)
				plan.Enable()
				d.Crash()
				plan.Disarm()
			},
			reads: "aaaabbb", crashed: "aaaabbb",
		},
		{
			name: "failed fsync leaves the bytes readable but volatile",
			steps: func(t *testing.T, d *MemDir, f File, plan *faultinject.Plan) {
				appendStr(t, f, "aaaa")
				plan.FailNth(faultinject.StoreSync, 1, 1)
				plan.Enable()
				if err := f.Sync(); err == nil {
					t.Fatal("injected fsync failure not reported")
				}
				plan.Disarm()
			},
			reads: "aaaa", crashed: "",
		},
		{
			name: "short append lands half, Truncate cuts it back",
			steps: func(t *testing.T, d *MemDir, f File, plan *faultinject.Plan) {
				appendStr(t, f, "aaaa")
				sync(t, f)
				plan.FailNth(faultinject.StoreShort, 6, 1)
				plan.Enable()
				n, err := f.Append([]byte("bbbbbb"))
				plan.Disarm()
				if n != 3 || err == nil {
					t.Fatalf("short append: n=%d err=%v, want 3 and an error", n, err)
				}
				if size, _ := f.Size(); size != 7 {
					t.Fatalf("size after short append %d, want 7", size)
				}
				f.Truncate(4)
				appendStr(t, f, "cc")
				sync(t, f)
			},
			reads: "aaaacc", crashed: "aaaacc",
		},
		{
			name: "failed append writes nothing",
			steps: func(t *testing.T, d *MemDir, f File, plan *faultinject.Plan) {
				appendStr(t, f, "aa")
				plan.FailNth(faultinject.StoreWrite, 2, 1)
				plan.Enable()
				if n, err := f.Append([]byte("bb")); n != 0 || err == nil {
					t.Fatalf("failed append: n=%d err=%v", n, err)
				}
				plan.Disarm()
				sync(t, f)
			},
			reads: "aa", crashed: "aa",
		},
		{
			name: "silent corruption flips a bit mid-write",
			steps: func(t *testing.T, d *MemDir, f File, plan *faultinject.Plan) {
				appendStr(t, f, "aa")
				plan.FailNth(faultinject.StoreCorrupt, 4, 1)
				plan.Enable()
				appendStr(t, f, "AAAA")
				plan.Disarm()
				sync(t, f)
			},
			reads: "aaAA\x01A", crashed: "aaAA\x01A", // 'A' ^ 0x40
		},
		{
			name: "Truncate above the watermark trims only unsynced bytes",
			steps: func(t *testing.T, d *MemDir, f File, _ *faultinject.Plan) {
				appendStr(t, f, "aaaa")
				sync(t, f)
				appendStr(t, f, "bbbb")
				f.Truncate(6)
			},
			reads: "aaaabb", crashed: "aaaa",
		},
		{
			name: "Truncate below the watermark is durable at once",
			steps: func(t *testing.T, d *MemDir, f File, _ *faultinject.Plan) {
				appendStr(t, f, "aaaa")
				sync(t, f)
				appendStr(t, f, "bbbb")
				f.Truncate(2)
				appendStr(t, f, "cc")
			},
			reads: "aacc", crashed: "aa",
		},
		{
			name: "Truncate at or past the end changes nothing",
			steps: func(t *testing.T, d *MemDir, f File, _ *faultinject.Plan) {
				appendStr(t, f, "aaaa")
				sync(t, f)
				appendStr(t, f, "bb")
				f.Truncate(6)
				f.Truncate(100)
			},
			reads: "aaaabb", crashed: "aaaa",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := faultinject.NewPlan(1)
			d := NewMemDir(plan)
			f, _ := d.Create("f") // file id 1
			d.SyncDir()
			tc.steps(t, d, f, plan)
			if got := readAll(t, f); got != tc.reads {
				t.Fatalf("reads %q, want %q", got, tc.reads)
			}
			d.Crash()
			if got := readAll(t, f); got != tc.crashed {
				t.Fatalf("after crash reads %q, want %q", got, tc.crashed)
			}
			// A second crash with nothing written in between is a no-op,
			// and appends resume at the cut.
			d.Crash()
			if got := readAll(t, f); got != tc.crashed {
				t.Fatalf("second crash changed the file: %q, want %q", got, tc.crashed)
			}
			appendStr(t, f, "zz")
			if got := readAll(t, f); got != tc.crashed+"zz" {
				t.Fatalf("append after crash reads %q, want %q", got, tc.crashed+"zz")
			}
		})
	}
}

func readAll(t *testing.T, f File) string {
	t.Helper()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if n, err := f.ReadAt(buf, 0); n != len(buf) || (err != nil && err != io.EOF) {
		t.Fatalf("ReadAt(0): n=%d of %d, err=%v", n, size, err)
	}
	return string(buf)
}

// TestMemFileReadAt reads across the watermark: durability state is
// invisible to a reader, and io.ReaderAt's EOF rules hold.
func TestMemFileReadAt(t *testing.T) {
	d := NewMemDir(nil)
	f, _ := d.Create("f")
	f.Append([]byte("0123"))
	f.Sync()
	f.Append([]byte("4567")) // watermark at 4, length 8
	for _, tc := range []struct {
		off  int64
		n    int
		want string
		err  error
	}{
		{0, 4, "0123", nil},     // synced part only
		{2, 4, "2345", nil},     // spans the watermark
		{4, 4, "4567", nil},     // unsynced part only, ends at EOF exactly
		{6, 4, "67", io.EOF},    // runs off the end
		{8, 1, "", io.EOF},      // at EOF
		{100, 1, "", io.EOF},    // past EOF
		{0, 8, "01234567", nil}, // whole file
	} {
		buf := make([]byte, tc.n)
		n, err := f.ReadAt(buf, tc.off)
		if string(buf[:n]) != tc.want || err != tc.err {
			t.Errorf("ReadAt(len %d, off %d) = %q, %v; want %q, %v", tc.n, tc.off, buf[:n], err, tc.want, tc.err)
		}
	}
	// What ReadAt returned is a copy: the file is not reachable through it.
	buf := make([]byte, 8)
	f.ReadAt(buf, 0)
	for i := range buf {
		buf[i] = 'x'
	}
	if got := readAll(t, f); got != "01234567" {
		t.Fatalf("file changed through a ReadAt buffer: %q", got)
	}
}
