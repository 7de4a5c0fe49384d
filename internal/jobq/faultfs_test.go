package jobq

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
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

// ackLog records which journal operations returned success while the
// journal was still durable (not degraded). The crash-safety contract:
// every op acked while durable must survive a crash + clean reopen; ops
// acked after degradation are memory-only by design and must NOT be
// required (or allowed to half-appear as torn garbage that breaks the
// durable prefix).
type ackLog struct {
	admits map[string]bool
	epochs map[string]int64 // highest durably-acked lease epoch
	ckpts  map[string]int64 // Queries of latest durably-acked checkpoint
	terms  map[string]string
}

// script drives a fixed op sequence against j, recording durable acks.
// It exercises every record kind plus an explicit compaction.
func script(t *testing.T, j *Journal) *ackLog {
	t.Helper()
	acks := &ackLog{
		admits: make(map[string]bool),
		epochs: make(map[string]int64),
		ckpts:  make(map[string]int64),
		terms:  make(map[string]string),
	}
	durable := func() bool { return !j.Stats().Degraded }

	spec := json.RawMessage(`{"n":5}`)
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("j-%04d", i)
		if err := j.Admit(id, spec, time.Now().UTC()); err == nil && durable() {
			acks.admits[id] = true
		}
		ep, err := j.Lease(id)
		if err == nil && durable() {
			acks.epochs[id] = ep
		}
		if err == nil {
			q := int64(10 * i)
			if cerr := j.Checkpoint(id, ep, &Checkpoint{Accepted: int64(i), Queries: q}); cerr == nil && durable() {
				acks.ckpts[id] = q
			}
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact returned error (should degrade instead): %v", err)
	}
	// Post-compaction appends: a terminal and one more full job. The
	// j-0001 lease always succeeded (the table is live even degraded),
	// so its epoch is 1 regardless of durability.
	if err := j.Terminal("j-0001", 1, "completed", "j-0001.json", "", &Checkpoint{Accepted: 1, Queries: 10}); err == nil && durable() {
		acks.terms["j-0001"] = "completed"
	}
	if err := j.Admit("j-0004", spec, time.Now().UTC()); err == nil && durable() {
		acks.admits["j-0004"] = true
	}
	return acks
}

// verify reopens dir with the clean OS filesystem and checks the
// durable-ack invariants against the replayed table.
func verify(t *testing.T, dir string, acks *ackLog, label string) {
	t.Helper()
	j, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("%s: clean reopen failed: %v", label, err)
	}
	defer j.Close()
	for id := range acks.admits {
		if jobByID(rep, id) == nil {
			t.Errorf("%s: durably acked admit %s lost", label, id)
		}
	}
	for id, ep := range acks.epochs {
		jr := jobByID(rep, id)
		if jr == nil {
			t.Errorf("%s: leased job %s lost", label, id)
			continue
		}
		if jr.Epoch < ep {
			t.Errorf("%s: %s epoch %d < durably acked %d", label, id, jr.Epoch, ep)
		}
	}
	for id, q := range acks.ckpts {
		jr := jobByID(rep, id)
		if jr == nil || jr.Ckpt == nil {
			t.Errorf("%s: durably acked checkpoint on %s lost", label, id)
			continue
		}
		if jr.Ckpt.Queries < q {
			t.Errorf("%s: %s checkpoint queries %d < durably acked %d (bill regressed)",
				label, id, jr.Ckpt.Queries, q)
		}
	}
	for id, state := range acks.terms {
		jr := jobByID(rep, id)
		if jr == nil || jr.Terminal == nil || jr.Terminal.State != state {
			t.Errorf("%s: durably acked terminal %s=%s lost (got %+v)", label, id, state, jr)
		}
	}
}

// TestFaultSweep replays every injected failure point of the scripted
// commit + compaction sequence, for every fault kind, and asserts the
// acked-implies-durable contract after a simulated crash (reopen with
// the real filesystem).
func TestFaultSweep(t *testing.T) {
	kinds := []struct {
		name string
		kind FaultKind
	}{
		{"eio", FaultErr},
		{"enospc", FaultENOSPC},
		{"shortwrite", FaultShortWrite},
	}

	// First count the script's total mutating ops on a clean run.
	countDir := t.TempDir()
	counter := NewFaultFS(OSFS, -1, FaultErr)
	jc, _, err := Open(countDir, Options{FS: counter, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	script(t, jc)
	jc.Close()
	totalOps := counter.Ops()
	if totalOps < 10 {
		t.Fatalf("script only produced %d mutating ops; sweep would be vacuous", totalOps)
	}

	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			base := t.TempDir()
			for fail := int64(0); fail < totalOps; fail++ {
				dir := filepath.Join(base, fmt.Sprintf("f%03d", fail))
				ffs := NewFaultFS(OSFS, fail, k.kind)
				j, _, err := Open(dir, Options{FS: ffs, CompactEvery: -1})
				if err != nil {
					// Fault hit journal creation itself: nothing was acked,
					// nothing to verify.
					continue
				}
				acks := script(t, j)
				// Simulate SIGKILL: drop the handle without Close's final
				// sync (Close would mask an unsynced tail).
				label := fmt.Sprintf("%s failAt=%d", k.name, fail)
				verify(t, dir, acks, label)
				j.Close()
			}
		})
	}
}

// TestFaultShortWriteTornFrame pins the torn-frame path end to end: a
// short write mid-append leaves a partial frame on disk, the journal
// degrades, and reopen salvages the durable prefix with Torn reported.
func TestFaultShortWriteTornFrame(t *testing.T) {
	// Count Open's mutating ops so the fault lands exactly on the second
	// append's segment write (each fsynced append costs write + sync).
	probeDir := t.TempDir()
	probe := NewFaultFS(OSFS, -1, FaultShortWrite)
	jp, _, err := Open(probeDir, Options{FS: probe})
	if err != nil {
		t.Fatal(err)
	}
	openOps := probe.Ops()
	jp.Close()

	dir := t.TempDir()
	ffs := NewFaultFS(OSFS, openOps+2, FaultShortWrite)
	j, _, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Admit("j-0001", nil, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	if j.Stats().Degraded {
		t.Fatal("fault tripped too early: first admit should be durable")
	}
	if err := j.Admit("j-0002", nil, time.Now().UTC()); err != nil {
		t.Fatalf("short write must degrade, not fail the caller: %v", err)
	}
	if !j.Stats().Degraded {
		t.Fatal("short write did not degrade the journal")
	}
	j.Close()

	j2, rep := mustOpen(t, dir, Options{})
	defer j2.Close()
	if !rep.Torn {
		t.Fatal("half-written frame not reported as torn tail")
	}
	if jobByID(rep, "j-0001") == nil {
		t.Fatal("durable first admit lost after torn tail")
	}
	// The half-written frame must not replay as a phantom record.
	if jobByID(rep, "j-0002") != nil {
		t.Fatal("half-written admit replayed as a record")
	}
}
