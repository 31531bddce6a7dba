package faultfs

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
)

// The memory-mapping operations. OpMap is the open-without-decode read
// path of the v3 store; OpUnmap fires when a mapping is released: as
// soon as the document built from it has materialized, on an explicit
// close, or from the backstop finalizer of a mapping dropped unread.
const (
	OpMap   Op = "map"
	OpUnmap Op = "unmap"
)

// mappedBytes totals the bytes of Mappings returned by Map and not yet
// released.
var mappedBytes atomic.Int64

// MappedBytes reports the total bytes currently held by open mappings.
func MappedBytes() int64 { return mappedBytes.Load() }

// Mapping is a read-only view of a file's contents. Data stays valid
// until Close. For memory-mapped backings the bytes alias the page
// cache and writing through them faults; fallback (heap) backings are
// plain buffers. A Mapping from Map that is dropped without Close is
// released by a finalizer — a backstop that always runs, because a
// Mapping references nothing that could point back to it.
type Mapping struct {
	Data []byte

	mmap  bool  // Data is a memory mapping, not a heap read
	size  int64 // bytes charged to mappedBytes
	once  sync.Once
	unmap func() error
	err   error
}

// Close releases the mapping. Safe to call more than once; after the
// first call Data must no longer be referenced.
func (m *Mapping) Close() error {
	m.once.Do(func() {
		runtime.SetFinalizer(m, nil)
		mappedBytes.Add(-m.size)
		if m.unmap != nil {
			m.err = m.unmap()
			m.unmap = nil
		}
		m.Data = nil
	})
	return m.err
}

// Mapper is the optional FS extension for zero-copy reads. OS
// implements it with mmap; the Injector implements it so the crash
// matrix can veto map/unmap like any other operation.
type Mapper interface {
	// Map returns a read-only view of the file's current contents.
	Map(name string) (*Mapping, error)
}

// Map returns a read-only view of name's contents through fsys. When
// fsys implements Mapper the view is zero-copy (mmap on OS); otherwise
// the file is read into memory through the seam, so fault hooks on the
// plain read path still apply. The view counts toward MappedBytes until
// it is released.
func Map(fsys FS, name string) (*Mapping, error) {
	m, err := mapRaw(fsys, name)
	if err != nil {
		return nil, err
	}
	m.size = int64(len(m.Data))
	mappedBytes.Add(m.size)
	runtime.SetFinalizer(m, (*Mapping).Close)
	return m, nil
}

func mapRaw(fsys FS, name string) (*Mapping, error) {
	if m, ok := fsys.(Mapper); ok {
		return m.Map(name)
	}
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("faultfs: map fallback read %s: %w", name, err)
	}
	return &Mapping{Data: data}, nil
}

// Map implements Mapper: a shared read-only mmap of the whole file. The
// descriptor is closed immediately — the mapping keeps the pages alive.
func (osFS) Map(name string) (*Mapping, error) {
	f, err := OS.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := OS.Stat(name)
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Mapping{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("faultfs: map %s: file too large (%d bytes)", name, size)
	}
	fd, ok := f.(interface{ Fd() uintptr })
	if !ok {
		return nil, fmt.Errorf("faultfs: map %s: no file descriptor", name)
	}
	data, err := syscall.Mmap(int(fd.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("faultfs: mmap %s: %w", name, err)
	}
	return &Mapping{Data: data, mmap: true, unmap: func() error { return syscall.Munmap(data) }}, nil
}

// PoisonUnmaps turns on poisoned releases for the mappings the injector
// makes from now on — a test mode that makes any use of a mapping
// after its release fail deterministically. A released memory mapping
// is mprotected PROT_NONE and stays reserved, so a later read faults
// (a panic under debug.SetPanicOnFault); a released heap-fallback
// buffer is overwritten with 0xA5, so a later read sees garbage.
// Poisoned pages never return to the OS.
func (in *Injector) PoisonUnmaps() {
	in.mu.Lock()
	in.poison = true
	in.mu.Unlock()
}

// Map implements Mapper for the Injector: the hook can veto the map
// itself (OpMap) and, later, the release (OpUnmap). A vetoed unmap
// still releases the pages — leaking a mapping is never a useful
// failure mode — but surfaces the injected error.
func (in *Injector) Map(name string) (*Mapping, error) {
	if err := in.check(OpMap, name); err != nil {
		return nil, err
	}
	m, err := mapRaw(in.inner, name)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	poison := in.poison
	in.mu.Unlock()
	// The release closure must not capture m: the Mapping's finalizer
	// only runs if nothing it references points back to it.
	data, mmap, inner := m.Data, m.mmap, m.unmap
	m.unmap = func() error {
		err := in.check(OpUnmap, name)
		var rerr error
		switch {
		case poison && mmap:
			rerr = syscall.Mprotect(data, syscall.PROT_NONE)
		case poison:
			for i := range data {
				data[i] = 0xA5
			}
		case inner != nil:
			rerr = inner()
		}
		if err == nil {
			err = rerr
		}
		return err
	}
	return m, nil
}
