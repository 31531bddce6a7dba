// Package faultfs is the filesystem seam under the framework's
// durability layer (package store's atomic saves and write-ahead log,
// package catalog's save-on-commit persistence). Production code runs
// on OS, a thin veneer over package os; tests wrap it in an Injector to
// make any single filesystem operation fail with ENOSPC/EIO, tear a
// write short (a power cut mid-append), or keep failing (a dying disk)
// — without root, loop devices, or dm-flakey.
//
// The interface is deliberately small: it covers exactly the operations
// the store and WAL issue (open/create, read/write/seek, fsync, close,
// rename, remove, truncate, stat), so every I/O the durability layer
// performs is interceptable and the crash-matrix tests can enumerate
// fault points exhaustively.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// File is the subset of *os.File the store and WAL use. Sync must be a
// real fsync on the OS implementation — the durability contract of the
// save and append paths depends on it.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem the durability layer runs on.
type FS interface {
	// OpenFile opens a file like os.OpenFile.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Open opens a file (or directory, for directory fsyncs) read-only.
	Open(name string) (File, error)
	// CreateTemp creates a temporary file like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename renames (atomically replacing) like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes a file like os.Remove.
	Remove(name string) error
	// Truncate resizes a file like os.Truncate.
	Truncate(name string, size int64) error
	// Stat stats a path like os.Stat.
	Stat(name string) (fs.FileInfo, error)
}

// OS is the production filesystem: every method delegates to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

// Op names one interceptable filesystem operation. Write and Sync carry
// the durability weight; Rename is the atomic-save commit point;
// Truncate is the WAL's rewind/reset.
type Op string

// The interceptable operations.
const (
	OpOpen     Op = "open"
	OpCreate   Op = "create"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpTruncate Op = "truncate"
	OpStat     Op = "stat"
)

// Hook inspects an imminent operation and may veto it by returning a
// non-nil error, which the Injector returns to the caller instead of
// performing the operation. Returning a *Torn error from an OpWrite
// hook writes a prefix of the data first — a torn append, as left by a
// power cut mid-write.
type Hook func(op Op, path string) error

// Torn, returned by a Hook on OpWrite, makes the injector write the
// first N bytes of the payload before failing with Err: the on-disk
// state a crash mid-append leaves behind. N larger than the payload is
// clamped.
type Torn struct {
	N   int
	Err error
}

// Error implements the error interface.
func (t *Torn) Error() string { return fmt.Sprintf("torn write after %d bytes: %v", t.N, t.Err) }

// Unwrap exposes the underlying fault.
func (t *Torn) Unwrap() error { return t.Err }

// Injector wraps an FS and forwards every operation through a Hook.
// With no hook set it is transparent. All methods are safe for
// concurrent use; per-Op call counts are kept for test assertions.
type Injector struct {
	inner FS

	mu     sync.Mutex
	hook   Hook
	counts map[Op]int
	poison bool // PoisonUnmaps
}

// NewInjector wraps inner (typically OS) for fault injection.
func NewInjector(inner FS) *Injector {
	return &Injector{inner: inner, counts: make(map[Op]int)}
}

// SetHook installs (or, with nil, clears) the fault hook.
func (in *Injector) SetHook(h Hook) {
	in.mu.Lock()
	in.hook = h
	in.mu.Unlock()
}

// Count reports how many operations of the given kind have been issued
// (including vetoed ones).
func (in *Injector) Count(op Op) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[op]
}

// check counts the operation and consults the hook.
func (in *Injector) check(op Op, path string) error {
	in.mu.Lock()
	in.counts[op]++
	h := in.hook
	in.mu.Unlock()
	if h == nil {
		return nil
	}
	return h(op, path)
}

// OpenFile implements FS.
func (in *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := in.check(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

// Open implements FS.
func (in *Injector) Open(name string) (File, error) {
	if err := in.check(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

// CreateTemp implements FS.
func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if err := in.check(OpCreate, filepath.Join(dir, pattern)); err != nil {
		return nil, err
	}
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

// Rename implements FS. The hook sees the destination path — the name
// the atomic save commits to.
func (in *Injector) Rename(oldpath, newpath string) error {
	if err := in.check(OpRename, newpath); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (in *Injector) Remove(name string) error {
	if err := in.check(OpRemove, name); err != nil {
		return err
	}
	return in.inner.Remove(name)
}

// Truncate implements FS.
func (in *Injector) Truncate(name string, size int64) error {
	if err := in.check(OpTruncate, name); err != nil {
		return err
	}
	return in.inner.Truncate(name, size)
}

// Stat implements FS.
func (in *Injector) Stat(name string) (fs.FileInfo, error) {
	if err := in.check(OpStat, name); err != nil {
		return nil, err
	}
	return in.inner.Stat(name)
}

// injFile forwards file operations through the injector's hook.
type injFile struct {
	in *Injector
	f  File
}

func (jf *injFile) Read(p []byte) (int, error) { return jf.f.Read(p) }

func (jf *injFile) Write(p []byte) (int, error) {
	if err := jf.in.check(OpWrite, jf.f.Name()); err != nil {
		var torn *Torn
		if errors.As(err, &torn) {
			n := torn.N
			if n > len(p) {
				n = len(p)
			}
			wrote, werr := jf.f.Write(p[:n])
			if werr != nil {
				return wrote, werr
			}
			return wrote, torn.Err
		}
		return 0, err
	}
	return jf.f.Write(p)
}

func (jf *injFile) Seek(offset int64, whence int) (int64, error) { return jf.f.Seek(offset, whence) }

func (jf *injFile) Close() error {
	if err := jf.in.check(OpClose, jf.f.Name()); err != nil {
		jf.f.Close() // release the descriptor either way
		return err
	}
	return jf.f.Close()
}

func (jf *injFile) Sync() error {
	if err := jf.in.check(OpSync, jf.f.Name()); err != nil {
		return err
	}
	return jf.f.Sync()
}

func (jf *injFile) Name() string { return jf.f.Name() }

// FailNth returns a hook that fails the nth (1-based) matching
// operation — and, when persistent is true, every matching operation
// after it — with err. match may be nil to match every operation.
func FailNth(n int, persistent bool, match func(op Op, path string) bool, err error) Hook {
	var mu sync.Mutex
	seen := 0
	return func(op Op, path string) error {
		if match != nil && !match(op, path) {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		seen++
		if seen == n || (persistent && seen > n) {
			return err
		}
		return nil
	}
}
