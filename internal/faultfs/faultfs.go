// Package faultfs abstracts the handful of filesystem operations the
// durability layer performs (append, fsync, rename, truncate, read,
// list) behind an interface with two implementations:
//
//   - OS: thin wrappers over the os package — what cubed runs in
//     production.
//   - MemFS: an in-memory filesystem that models durability the way a
//     power cut does (bytes reach "disk" only when synced; Crash drops
//     the unsynced suffix at an arbitrary byte boundary) and injects
//     failures — short writes, fsync errors, rename failures, open
//     errors — at any operation index.
//
// internal/wal and internal/snapshot's rotation take an FS, so the
// exact same code paths that run against the real disk are driven
// through every failure point by the fault-injection sweeps.
package faultfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// File is the writable handle the durability layer needs. Writes are
// append-only (the WAL and snapshot writers never seek); Truncate is the
// one non-append mutation, used to repair a torn tail.
type File interface {
	io.Writer
	// Sync flushes written bytes to stable storage. A record is durable
	// only after Sync returns nil.
	Sync() error
	// Truncate shrinks the file to size bytes (repairing a torn tail).
	Truncate(size int64) error
	// Close releases the handle. Closing does not imply durability.
	Close() error
	// Name reports the path the handle was opened with.
	Name() string
}

// FS is the filesystem surface: open-for-append, whole-file read, atomic
// rename, remove, stat and a flat directory listing.
type FS interface {
	// OpenAppend opens path for appending, creating it (empty) when it
	// does not exist.
	OpenAppend(path string) (File, error)
	// Create opens path for appending, truncating any existing content.
	Create(path string) (File, error)
	// ReadFile returns the full content of path.
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// Stat reports whether path exists (the error is fs.ErrNotExist-
	// compatible when it does not).
	Stat(path string) (fs.FileInfo, error)
	// ReadDirNames lists the names (not paths) of dir's entries.
	ReadDirNames(dir string) ([]string, error)
}

// OS is the production FS: every method delegates to the os package.
type OS struct{}

type osFile struct{ *os.File }

func (f osFile) Truncate(size int64) error { return f.File.Truncate(size) }

// OpenAppend implements FS.
func (OS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Create implements FS.
func (OS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// Stat implements FS.
func (OS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

// ReadDirNames implements FS.
func (OS) ReadDirNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names, nil
}

// WriteFileAtomic replaces path with data so that a crash at any point
// leaves the previous content or the new one, never an empty or torn
// file: the bytes go to path+".tmp", are fsynced, and the temp file is
// renamed over path. A failed attempt removes its temp file and leaves
// path untouched. Concurrent writers of one path must be serialized by
// the caller (they share the temp name).
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp) // best effort; the error that matters is err
	}
	return err
}

// truncate on os.File needs the file opened writable; osFile embeds
// *os.File so Truncate is available, but appending after a truncate with
// O_APPEND still lands at the (new) end — exactly the repair semantics
// the WAL wants.
var _ FS = OS{}

// errString makes injected errors self-describing in test output.
type errString string

func (e errString) Error() string { return string(e) }

// ErrInjected is the sentinel every injected failure wraps.
const ErrInjected = errString("faultfs: injected fault")

// Injected wraps ErrInjected with the operation that tripped.
func Injected(op Op, path string) error {
	return fmt.Errorf("%w: %s %s", ErrInjected, op, path)
}
