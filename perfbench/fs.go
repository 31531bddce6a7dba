package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
)

// ioClass says what the program was doing when it touched storage. The
// class is read off the path and the FS instance: *.wal files are the
// write-ahead log; every other write, rename and directory sync belongs
// to a save, which is a checkpoint on a catalog's FS and an ingest save
// on an ingest FS; opens and maps for reading are reads.
type ioClass int

const (
	ioLog ioClass = iota
	ioCheckpoint
	ioIngest
	ioRead
	nIOClasses
)

var ioClassNames = [nIOClasses]string{"log", "checkpoint", "ingest", "read"}

// ioCounters accumulates one class's storage traffic. The time fields
// stay zero unless the FS is timed.
type ioCounters struct {
	writes, writeBytes, syncs, renames, maps, mapBytes atomic.Int64
	writeNS, syncNS, otherNS                           atomic.Int64
}

// ioTotals is a plain snapshot of ioCounters.
type ioTotals struct {
	Writes, WriteBytes, Syncs, Renames, Maps, MapBytes int64
	WriteNS, SyncNS, OtherNS                           int64
}

// NS is the class's total timed storage time.
func (t ioTotals) NS() int64 { return t.WriteNS + t.SyncNS + t.OtherNS }

func (t ioTotals) sub(o ioTotals) ioTotals {
	return ioTotals{
		t.Writes - o.Writes, t.WriteBytes - o.WriteBytes, t.Syncs - o.Syncs,
		t.Renames - o.Renames, t.Maps - o.Maps, t.MapBytes - o.MapBytes,
		t.WriteNS - o.WriteNS, t.SyncNS - o.SyncNS, t.OtherNS - o.OtherNS,
	}
}

func (t ioTotals) add(o ioTotals) ioTotals {
	return ioTotals{
		t.Writes + o.Writes, t.WriteBytes + o.WriteBytes, t.Syncs + o.Syncs,
		t.Renames + o.Renames, t.Maps + o.Maps, t.MapBytes + o.MapBytes,
		t.WriteNS + o.WriteNS, t.SyncNS + o.SyncNS, t.OtherNS + o.OtherNS,
	}
}

// countingFS is a faultfs.FS over the real filesystem that counts every
// operation by class and, when timed, how long each took. Untimed it
// reads no clock, so the untraced run pays only atomic adds. When rec is
// set, each timed operation is also recorded as a span whose parent is
// the span id the caller last stored in parent.
type countingFS struct {
	saveClass ioClass
	timed     bool
	rec       *recorder
	parent    atomic.Uint64

	c [nIOClasses]ioCounters
}

func newCountingFS(saveClass ioClass, timed bool, rec *recorder) *countingFS {
	return &countingFS{saveClass: saveClass, timed: timed, rec: rec}
}

// totals snapshots one class.
func (f *countingFS) totals(cl ioClass) ioTotals {
	c := &f.c[cl]
	return ioTotals{
		c.writes.Load(), c.writeBytes.Load(), c.syncs.Load(), c.renames.Load(),
		c.maps.Load(), c.mapBytes.Load(), c.writeNS.Load(), c.syncNS.Load(), c.otherNS.Load(),
	}
}

// all snapshots every class.
func (f *countingFS) all() [nIOClasses]ioTotals {
	var out [nIOClasses]ioTotals
	for cl := ioClass(0); cl < nIOClasses; cl++ {
		out[cl] = f.totals(cl)
	}
	return out
}

func (f *countingFS) classOf(name string) ioClass {
	if strings.HasSuffix(name, ".wal") {
		return ioLog
	}
	return f.saveClass
}

// start reads the clock only on a timed FS.
func (f *countingFS) start() time.Time {
	if !f.timed {
		return time.Time{}
	}
	return time.Now()
}

// done charges the time since t0 to the class and records a span.
func (f *countingFS) done(cl ioClass, op string, t0 time.Time, field *atomic.Int64, n int64) {
	if !f.timed {
		return
	}
	d := time.Since(t0)
	field.Add(int64(d))
	if f.rec != nil {
		f.rec.add(span{Parent: f.parent.Load(), Name: "faultfs." + ioClassNames[cl] + "." + op,
			Start: f.rec.offset(t0), Dur: int64(d), N: n})
	}
}

func (f *countingFS) wrap(cl ioClass, file faultfs.File) faultfs.File {
	return &countingFile{fs: f, cl: cl, f: file}
}

// OpenFile implements faultfs.FS.
func (f *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	cl := f.classOf(name)
	t0 := f.start()
	file, err := faultfs.OS.OpenFile(name, flag, perm)
	f.done(cl, "open", t0, &f.c[cl].otherNS, 0)
	if err != nil {
		return nil, err
	}
	return f.wrap(cl, file), nil
}

// Open implements faultfs.FS. A save opens its directory this way to
// sync it, so a later Sync on the handle is charged to the save class.
func (f *countingFS) Open(name string) (faultfs.File, error) {
	cl := f.classOf(name)
	t0 := f.start()
	file, err := faultfs.OS.Open(name)
	f.done(cl, "open", t0, &f.c[cl].otherNS, 0)
	if err != nil {
		return nil, err
	}
	return f.wrap(cl, file), nil
}

// CreateTemp implements faultfs.FS: the save's temporary file.
func (f *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	cl := f.classOf(filepath.Join(dir, pattern))
	t0 := f.start()
	file, err := faultfs.OS.CreateTemp(dir, pattern)
	f.done(cl, "create", t0, &f.c[cl].otherNS, 0)
	if err != nil {
		return nil, err
	}
	return f.wrap(cl, file), nil
}

// Rename implements faultfs.FS: the save's commit point.
func (f *countingFS) Rename(oldpath, newpath string) error {
	cl := f.classOf(newpath)
	f.c[cl].renames.Add(1)
	t0 := f.start()
	err := faultfs.OS.Rename(oldpath, newpath)
	f.done(cl, "rename", t0, &f.c[cl].otherNS, 0)
	return err
}

// Remove implements faultfs.FS.
func (f *countingFS) Remove(name string) error {
	cl := f.classOf(name)
	t0 := f.start()
	err := faultfs.OS.Remove(name)
	f.done(cl, "remove", t0, &f.c[cl].otherNS, 0)
	return err
}

// Truncate implements faultfs.FS: the log's rewind and reset.
func (f *countingFS) Truncate(name string, size int64) error {
	cl := f.classOf(name)
	t0 := f.start()
	err := faultfs.OS.Truncate(name, size)
	f.done(cl, "truncate", t0, &f.c[cl].otherNS, 0)
	return err
}

// Stat implements faultfs.FS. Stats are metadata lookups, not traffic,
// and go uncounted.
func (f *countingFS) Stat(name string) (fs.FileInfo, error) { return faultfs.OS.Stat(name) }

// Map implements faultfs.Mapper so mapped opens stay zero-copy: without
// it faultfs.Map would fall back to reading the whole file onto the
// heap, and the benchmark would measure a different read path.
func (f *countingFS) Map(name string) (*faultfs.Mapping, error) {
	t0 := f.start()
	m, err := faultfs.OS.(faultfs.Mapper).Map(name)
	if err != nil {
		return nil, err
	}
	c := &f.c[ioRead]
	c.maps.Add(1)
	c.mapBytes.Add(int64(len(m.Data)))
	f.done(ioRead, "map", t0, &c.otherNS, int64(len(m.Data)))
	return m, nil
}

// countingFile charges its writes and syncs to the class it was opened
// under.
type countingFile struct {
	fs *countingFS
	cl ioClass
	f  faultfs.File
}

func (cf *countingFile) Read(p []byte) (int, error) { return cf.f.Read(p) }

func (cf *countingFile) Write(p []byte) (int, error) {
	c := &cf.fs.c[cf.cl]
	t0 := cf.fs.start()
	n, err := cf.f.Write(p)
	c.writes.Add(1)
	c.writeBytes.Add(int64(n))
	cf.fs.done(cf.cl, "write", t0, &c.writeNS, int64(n))
	return n, err
}

func (cf *countingFile) Seek(offset int64, whence int) (int64, error) {
	return cf.f.Seek(offset, whence)
}

func (cf *countingFile) Sync() error {
	c := &cf.fs.c[cf.cl]
	t0 := cf.fs.start()
	err := cf.f.Sync()
	c.syncs.Add(1)
	cf.fs.done(cf.cl, "sync", t0, &c.syncNS, 0)
	return err
}

func (cf *countingFile) Close() error {
	t0 := cf.fs.start()
	err := cf.f.Close()
	cf.fs.done(cf.cl, "close", t0, &cf.fs.c[cf.cl].otherNS, 0)
	return err
}

func (cf *countingFile) Name() string { return cf.f.Name() }
