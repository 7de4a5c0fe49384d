package jobq

import (
	"io"
	"os"
)

// FS is the filesystem surface the journal writes through. The
// indirection exists for the same reason internal/faultform exists for
// the wire: disk failures (short writes, fsync errors, ENOSPC) must be
// injectable deterministically so every crash point of the commit and
// compaction protocols can be replayed in tests. Production code uses
// OSFS; the package's tests wrap it in FaultFS, a test double defined in
// faultfs_test.go.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// OpenFile opens name like os.OpenFile. Opening a directory with
	// O_RDONLY must yield a File whose Sync flushes the directory entry
	// (the journal fsyncs the directory after renames and creates).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
	Truncate(name string, size int64) error
}

// File is the open-file surface the journal needs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
