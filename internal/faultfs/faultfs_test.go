package faultfs

import (
	"errors"
	"io/fs"
	"path/filepath"
	"testing"
)

// TestMemDurabilityModel pins the power-cut semantics: unsynced bytes
// vanish on Crash, synced bytes never do.
func TestMemDurabilityModel(t *testing.T) {
	m := NewMemFS()
	f, err := m.OpenAppend("a/log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("+volatile")); err != nil {
		t.Fatal(err)
	}
	if got := m.Len("a/log"); got != len("durable+volatile") {
		t.Fatalf("cached length %d", got)
	}
	if got := m.SyncedLen("a/log"); got != len("durable") {
		t.Fatalf("synced length %d", got)
	}
	m.Crash()
	data, err := m.ReadFile("a/log")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable" {
		t.Fatalf("after crash: %q", data)
	}
}

// TestCrashKeepingBoundaries sweeps every byte boundary between the
// synced prefix and the cached length.
func TestCrashKeepingBoundaries(t *testing.T) {
	for keep := 0; keep <= 10; keep++ {
		m := NewMemFS()
		f, _ := m.OpenAppend("w")
		f.Write([]byte("abcd")) // synced below
		f.Sync()
		f.Write([]byte("efgh")) // volatile
		m.CrashKeeping("w", keep)
		got := m.Len("w")
		want := keep
		if want < 4 {
			want = 4 // can never lose synced bytes
		}
		if want > 8 {
			want = 8
		}
		if got != want {
			t.Fatalf("keep=%d: length %d, want %d", keep, got, want)
		}
	}
}

// TestInjectionFiresAtScheduledOp checks op counting, short writes and
// transient-vs-persistent semantics.
func TestInjectionFiresAtScheduledOp(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenAppend("w")

	// Short write on the 2nd write: 3 bytes land, then the error.
	m.Inject(Fault{Op: OpWrite, N: 2, Keep: 3})
	if _, err := f.Write([]byte("first")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	n, err := f.Write([]byte("second"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: err=%v", err)
	}
	if n != 3 {
		t.Fatalf("short write landed %d bytes, want 3", n)
	}
	if !m.Tripped() {
		t.Fatal("fault not marked tripped")
	}
	// Transient: the next write succeeds.
	if _, err := f.Write([]byte("third")); err != nil {
		t.Fatalf("write 3 after transient fault: %v", err)
	}
	if got := m.Len("w"); got != len("first")+3+len("third") {
		t.Fatalf("cached length %d", got)
	}

	// Persistent: every sync after the first scheduled one fails.
	m.Inject(Fault{Op: OpSync, N: 1, Persistent: true})
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 1: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 2 (persistent): %v", err)
	}

	// Rename fault.
	m.Inject(Fault{Op: OpRename, N: 1})
	if err := m.Rename("w", "w2"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename: %v", err)
	}
	if _, err := m.Stat("w"); err != nil {
		t.Fatal("failed rename must leave the source in place")
	}
	m.Inject(Fault{})
	if err := m.Rename("w", "w2"); err != nil {
		t.Fatalf("rename after clearing faults: %v", err)
	}
}

// TestMemNotExistErrors checks fs.ErrNotExist compatibility.
func TestMemNotExistErrors(t *testing.T) {
	m := NewMemFS()
	if _, err := m.ReadFile("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadFile: %v", err)
	}
	if _, err := m.Stat("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat: %v", err)
	}
	if err := m.Remove("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Remove: %v", err)
	}
	if err := m.Rename("nope", "x"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Rename: %v", err)
	}
}

// TestCloneIsolation: mutating a clone leaves the original untouched.
func TestCloneIsolation(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenAppend("w")
	f.Write([]byte("abc"))
	f.Sync()
	c := m.Clone()
	cf, _ := c.OpenAppend("w")
	cf.Write([]byte("xyz"))
	if m.Len("w") != 3 {
		t.Fatalf("original grew to %d", m.Len("w"))
	}
	if c.Len("w") != 6 {
		t.Fatalf("clone length %d", c.Len("w"))
	}
}

// TestOSImplementation smoke-tests the production FS against a temp dir:
// append, read, rename, truncate, list.
func TestOSImplementation(t *testing.T) {
	dir := t.TempDir()
	var o OS
	p := filepath.Join(dir, "f.bin")
	f, err := o.OpenAppend(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	// O_APPEND writes land at the new end after a truncate.
	if _, err := f.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := o.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello!" {
		t.Fatalf("content %q", data)
	}
	if err := o.Rename(p, filepath.Join(dir, "g.bin")); err != nil {
		t.Fatal(err)
	}
	names, err := o.ReadDirNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "g.bin" {
		t.Fatalf("dir listing %v", names)
	}
	if _, err := o.Stat(p); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat after rename: %v", err)
	}
}

// TestWriteFileAtomicCrashSafety sweeps a fault over every operation of
// one WriteFileAtomic call replacing an existing file, power-cuts after
// each, and requires the survivor to be the old content or the new —
// never empty, never torn — with the failed attempt's temp file gone.
// The fault-free pass (the sweep's last) must leave the new content
// durable.
func TestWriteFileAtomicCrashSafety(t *testing.T) {
	const path = "state/m1.json"
	oldData, newData := []byte(`{"phase":"copy"}`), []byte(`{"phase":"cutover","mapEpoch":2}`)
	for n := int64(1); ; n++ {
		m := NewMemFS()
		if err := WriteFileAtomic(m, path, oldData); err != nil {
			t.Fatalf("seeding: %v", err)
		}
		m.Inject(Fault{Op: OpAny, N: n, Keep: 5})
		err := WriteFileAtomic(m, path, newData)
		tripped := m.Tripped()
		if tripped != (err != nil) {
			t.Fatalf("fault %d: tripped=%v but err=%v", n, tripped, err)
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("fault %d: error does not wrap the injected fault: %v", n, err)
		}
		m.Crash()
		got, rerr := m.ReadFile(path)
		if rerr != nil {
			t.Fatalf("fault %d: file gone after crash: %v", n, rerr)
		}
		want := oldData
		if err == nil {
			want = newData
		}
		if string(got) != string(want) {
			t.Fatalf("fault %d (err=%v): after crash %q, want %q", n, err, got, want)
		}
		if _, serr := m.Stat(path + ".tmp"); !errors.Is(serr, fs.ErrNotExist) {
			t.Fatalf("fault %d: temp file left behind (stat err %v)", n, serr)
		}
		if !tripped {
			if n < 4 {
				t.Fatalf("sweep ended at fault %d: fewer countable operations than create/write/sync/rename", n)
			}
			return
		}
	}
}
