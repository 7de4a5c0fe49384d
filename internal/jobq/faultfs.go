package jobq

import (
	"os"
	"sync"
	"syscall"
)

// FaultKind selects what a FaultFS injects at its trigger point.
type FaultKind int

const (
	// FaultErr fails the op with EIO, no bytes written.
	FaultErr FaultKind = iota
	// FaultENOSPC fails the op with ENOSPC, no bytes written.
	FaultENOSPC
	// FaultShortWrite writes half the buffer, then fails with ENOSPC —
	// the torn-frame case replay must tolerate. Non-write ops fail as
	// FaultENOSPC does.
	FaultShortWrite
)

// FaultFS wraps an FS and deterministically fails the FailAt-th mutating
// operation (writes, syncs, creates, renames, removes, truncates — the
// ops whose failure a crash-safe journal must survive). Once tripped it
// keeps failing every mutating op, modelling a disk that stays broken:
// tests sweep FailAt across a scripted op sequence and assert that every
// operation acknowledged before the trip survives reopen, which replays
// every injected failure point of the commit and compaction protocols.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	ops     int64
	failAt  int64
	kind    FaultKind
	tripped bool
}

// NewFaultFS wraps inner, failing the failAt-th mutating op (0-based)
// and every mutating op after it. failAt < 0 never fails, which is how
// tests count a script's total mutating ops.
func NewFaultFS(inner FS, failAt int64, kind FaultKind) *FaultFS {
	return &FaultFS{inner: inner, failAt: failAt, kind: kind}
}

// Ops returns the mutating operations observed so far.
func (f *FaultFS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Tripped reports whether the fault has fired.
func (f *FaultFS) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// errFor maps the kind onto its injected error.
func (f *FaultFS) errFor() error {
	if f.kind == FaultErr {
		return syscall.EIO
	}
	return syscall.ENOSPC
}

// step counts one mutating op and reports whether it must fail.
func (f *FaultFS) step() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.ops
	f.ops++
	if f.failAt >= 0 && n >= f.failAt {
		f.tripped = true
	}
	return f.tripped
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if f.step() {
		return f.errFor()
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	// Opening for write (create/append/truncate) mutates; read-only
	// opens — replay — are free.
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_APPEND|os.O_TRUNC) != 0 {
		if f.step() {
			return nil, f.errFor()
		}
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.step() {
		return f.errFor()
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if f.step() {
		return f.errFor()
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

func (f *FaultFS) Truncate(name string, size int64) error {
	if f.step() {
		return f.errFor()
	}
	return f.inner.Truncate(name, size)
}

// faultFile interposes on writes and syncs of one open file.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.inner.Read(p) }

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.fs.step() {
		if ff.fs.kind == FaultShortWrite && len(p) > 1 {
			n, err := ff.inner.Write(p[:len(p)/2])
			if err != nil {
				return n, err
			}
			return n, syscall.ENOSPC
		}
		return 0, ff.fs.errFor()
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if ff.fs.step() {
		return ff.fs.errFor()
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
