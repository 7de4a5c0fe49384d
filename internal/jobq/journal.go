package jobq

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Options tunes a Journal.
type Options struct {
	// FS overrides the filesystem (fault injection in tests); nil uses
	// the real one.
	FS FS
	// NoSync skips the per-commit fsync. Tests only: it surrenders the
	// power-failure guarantee the journal exists for.
	NoSync bool
	// CompactEvery is the record count between automatic snapshot+
	// truncate compactions (default 4096; negative disables).
	CompactEvery int
	// Logger receives degradation and replay warnings; nil uses
	// slog.Default.
	Logger *slog.Logger
}

func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.Default()
}

// Stats is a point-in-time snapshot of the journal's counters.
type Stats struct {
	// Appends counts committed records, Fsyncs the data syncs backing
	// them (file and directory), Compactions the snapshot+truncate
	// cycles.
	Appends     int64 `json:"appends"`
	Fsyncs      int64 `json:"fsyncs"`
	Compactions int64 `json:"compactions"`
	// ReplayRecords counts records replayed at Open, ReplayFenced the
	// stale-epoch records replay dropped, TornTail whether replay cut a
	// torn frame off the end.
	ReplayRecords int64 `json:"replay_records"`
	ReplayFenced  int64 `json:"replay_fenced"`
	TornTail      bool  `json:"torn_tail"`
	// Degraded reports memory-only mode after a disk failure: the job
	// table keeps working, durability is gone, and the daemon must say
	// so loudly.
	Degraded bool `json:"degraded"`
	// SegmentBytes is the active segment's size, Seq its sequence
	// number, Jobs the table size.
	SegmentBytes int64  `json:"segment_bytes"`
	Seq          uint64 `json:"seq"`
	Jobs         int    `json:"jobs"`
}

// Replay is what Open rebuilt from disk.
type Replay struct {
	// Jobs lists every journaled job in admission order. Jobs with a nil
	// Terminal were queued or running at the crash; the owner requeues
	// them under a fresh lease.
	Jobs []*JobRecord
	// Records counts replayed log records (snapshot jobs excluded),
	// Fenced the stale-epoch records dropped, Torn whether a torn tail
	// was cut.
	Records int64
	Fenced  int64
	Torn    bool
}

// snapshot is the compaction checkpoint: the whole job table as of the
// start of segment Seq.
type snapshot struct {
	Seq     uint64       `json:"seq"`
	SavedAt time.Time    `json:"saved_at"`
	Jobs    []*JobRecord `json:"jobs"`
}

// Journal is a crash-safe, append-only job journal: records are CRC
// framed and fsynced before the append returns (commit = durable),
// replay tolerates a torn tail, compaction snapshots the job table and
// truncates the log, and lease epochs fence stale writers. On a disk
// failure it degrades to memory-only rather than failing its caller:
// the owner keeps running and surfaces Stats.Degraded.
//
// All methods are safe for concurrent use.
type Journal struct {
	dir  string
	fs   FS
	opts Options
	lg   *slog.Logger

	mu       sync.Mutex
	f        File
	seq      uint64
	segBytes int64
	recs     int // records since last compaction
	buf      []byte
	table    *table
	degraded bool
	closed   bool

	appends, fsyncs, compactions int64
	replayRecords, replayFenced  int64
	tornTail                     bool
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%016d.wal", seq) }

func snapName(seq uint64) string { return fmt.Sprintf("snap-%016d.json", seq) }

// Open replays dir (creating it if needed) and returns the journal plus
// what it rebuilt. A replay that salvages a torn tail succeeds with
// Replay.Torn set; unreadable snapshots and segments fail Open so the
// owner can degrade loudly instead of silently resurrecting a partial
// table.
func Open(dir string, opts Options) (*Journal, *Replay, error) {
	if opts.FS == nil {
		opts.FS = OSFS
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 4096
	}
	j := &Journal{
		dir:   dir,
		fs:    opts.FS,
		opts:  opts,
		lg:    opts.logger().With("component", "jobq", "dir", dir),
		table: newTable(),
	}
	if err := j.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobq: open %s: %w", dir, err)
	}
	rep, err := j.replay()
	if err != nil {
		return nil, nil, err
	}
	return j, rep, nil
}

// scan lists the directory's segment and snapshot sequence numbers.
func (j *Journal) scan() (segs, snaps []uint64, err error) {
	ents, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("jobq: scan %s: %w", j.dir, err)
	}
	for _, e := range ents {
		var seq uint64
		name := e.Name()
		if n, _ := fmt.Sscanf(name, "seg-%d.wal", &seq); n == 1 && name == segName(seq) {
			segs = append(segs, seq)
		}
		if n, _ := fmt.Sscanf(name, "snap-%d.json", &seq); n == 1 && name == snapName(seq) {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	sort.Slice(snaps, func(a, b int) bool { return snaps[a] < snaps[b] })
	return segs, snaps, nil
}

// replay rebuilds the table: newest readable snapshot, then every
// segment at or after it, in order, tolerating a torn tail. Stale files
// (left by a crash mid-compaction) are pruned.
func (j *Journal) replay() (*Replay, error) {
	segs, snaps, err := j.scan()
	if err != nil {
		return nil, err
	}

	// Adopt the newest parseable snapshot; fall back to older ones (a
	// crash can interleave with compaction's cleanup, but rename makes
	// each snapshot file all-or-nothing, so normally the newest parses).
	var base uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		snap, err := j.readSnapshot(snaps[i])
		if err != nil {
			j.lg.Warn("unreadable snapshot skipped", "seq", snaps[i], "error", err)
			continue
		}
		j.table.load(snap.Jobs)
		base = snap.Seq
		break
	}

	// Replay segments from the snapshot forward. A torn frame ends
	// replay: append-only commit order means nothing after a tear can be
	// a record the journal acknowledged.
	rep := &Replay{}
	active := base
	if len(segs) > 0 && segs[len(segs)-1] > active {
		active = segs[len(segs)-1]
	}
	var tornSeq uint64
	var tornOff int64
	for _, seq := range segs {
		if seq < base {
			continue
		}
		data, err := j.readSegment(seq)
		if err != nil {
			return nil, err
		}
		valid, torn := decodeFrames(data, func(rec *record) {
			_ = j.table.apply(rec, false)
			rep.Records++
		})
		if torn {
			rep.Torn = true
			tornSeq, tornOff = seq, valid
			j.lg.Warn("torn journal tail cut", "segment", segName(seq), "valid_bytes", valid, "total_bytes", len(data))
			break
		}
		if seq == active {
			j.segBytes = int64(len(data))
		}
	}
	rep.Fenced = j.table.fenced
	rep.Jobs = j.table.records()
	j.replayRecords = rep.Records
	j.replayFenced = rep.Fenced
	j.tornTail = rep.Torn

	// Make the torn segment the active one, physically truncated to its
	// valid prefix so new appends start on a clean frame boundary.
	j.seq = active
	if rep.Torn {
		j.seq = tornSeq
		if err := j.fs.Truncate(filepath.Join(j.dir, segName(tornSeq)), tornOff); err != nil {
			return nil, fmt.Errorf("jobq: truncate torn tail: %w", err)
		}
		j.segBytes = tornOff
	}
	if j.seq == 0 {
		j.seq = 1
	}

	// Prune what the replay no longer needs: segments and snapshots
	// older than the adopted base, segments past a torn tail, and
	// leftover temp files.
	for _, seq := range segs {
		if seq < base || (rep.Torn && seq > j.seq) {
			j.removeQuiet(segName(seq))
		}
	}
	for _, seq := range snaps {
		if seq != base {
			j.removeQuiet(snapName(seq))
		}
	}

	f, err := j.fs.OpenFile(filepath.Join(j.dir, segName(j.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobq: open segment: %w", err)
	}
	j.f = f
	return rep, nil
}

func (j *Journal) readSnapshot(seq uint64) (*snapshot, error) {
	f, err := j.fs.OpenFile(filepath.Join(j.dir, snapName(seq)), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := readAll(f)
	if err != nil {
		return nil, err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	if snap.Seq != seq {
		return nil, fmt.Errorf("jobq: snapshot %d names seq %d", seq, snap.Seq)
	}
	return &snap, nil
}

func (j *Journal) readSegment(seq uint64) ([]byte, error) {
	f, err := j.fs.OpenFile(filepath.Join(j.dir, segName(seq)), os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("jobq: read segment: %w", err)
	}
	defer f.Close()
	data, err := readAll(f)
	if err != nil {
		return nil, fmt.Errorf("jobq: read segment: %w", err)
	}
	return data, nil
}

func (j *Journal) removeQuiet(name string) {
	if err := j.fs.Remove(filepath.Join(j.dir, name)); err != nil && !os.IsNotExist(err) {
		j.lg.Warn("stale journal file not removed", "name", name, "error", err)
	}
}

// syncDir fsyncs the journal directory so renames and creates are
// durable, not just the file contents.
func (j *Journal) syncDir() error {
	d, err := j.fs.OpenFile(j.dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return err
	}
	j.fsyncs++
	return nil
}

// degrade flips the journal to memory-only mode, once, loudly.
func (j *Journal) degradeLocked(what string, err error) {
	if j.degraded {
		return
	}
	j.degraded = true
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
	j.lg.Error("journal degraded to memory-only: durability lost until restart",
		"op", what, "error", err)
}

// append commits one record: apply to the table (fencing first — a
// stale-epoch writer is rejected before anything reaches disk), frame,
// write, fsync. Disk failures degrade the journal instead of failing
// the caller; fencing and lifecycle errors always surface.
func (j *Journal) append(rec *record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.table.apply(rec, true); err != nil {
		return err
	}
	if j.degraded {
		return nil
	}
	buf, err := encodeFrame(j.buf[:0], rec)
	if err != nil {
		// A record the journal cannot encode is a programming error; the
		// table already applied it, so stay consistent and degrade.
		j.degradeLocked("encode", err)
		return nil
	}
	j.buf = buf
	if _, err := j.f.Write(buf); err != nil {
		j.degradeLocked("append", err)
		return nil
	}
	j.appends++
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			j.degradeLocked("fsync", err)
			return nil
		}
		j.fsyncs++
	}
	j.segBytes += int64(len(buf))
	j.recs++
	if j.opts.CompactEvery > 0 && j.recs >= j.opts.CompactEvery {
		if err := j.compactLocked(); err != nil {
			j.degradeLocked("compact", err)
		}
	}
	return nil
}

// Admit journals a job admission: call before acknowledging the
// submission, so an admitted job can never be lost.
func (j *Journal) Admit(id string, spec json.RawMessage, created time.Time) error {
	return j.append(&record{Op: opAdmit, Job: id, Spec: spec, At: created})
}

// Lease grants the job's next run epoch and journals it. The returned
// epoch fences every earlier one: a zombie writer holding a stale epoch
// gets ErrStaleEpoch instead of corrupting the resumed job's state.
func (j *Journal) Lease(id string) (int64, error) {
	j.mu.Lock()
	jr, ok := j.table.jobs[id]
	var next int64
	if ok {
		next = jr.Epoch + 1
	}
	j.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if err := j.append(&record{Op: opLease, Job: id, Epoch: next, At: time.Now().UTC()}); err != nil {
		return 0, err
	}
	return next, nil
}

// Checkpoint journals a mid-run progress checkpoint under the given
// lease epoch.
func (j *Journal) Checkpoint(id string, epoch int64, ck *Checkpoint) error {
	return j.append(&record{Op: opCkpt, Job: id, Epoch: epoch, Ckpt: ck, At: time.Now().UTC()})
}

// Terminal journals the job's terminal transition: state name, the
// on-disk sample-set pointer, the error message, and final stats (the
// samples payload, if any, lives behind the pointer, not in the log).
func (j *Journal) Terminal(id string, epoch int64, state, pointer, errMsg string, stats *Checkpoint) error {
	if stats != nil {
		st := *stats
		st.Samples = nil
		st.Bills = nil
		stats = &st
	}
	return j.append(&record{
		Op: opTerm, Job: id, Epoch: epoch, State: state,
		Pointer: pointer, Err: errMsg, Ckpt: stats, At: time.Now().UTC(),
	})
}

// Compact snapshots the job table and truncates the log: write
// snap-(seq+1) (temp + rename + dir fsync), switch appends to a fresh
// seg-(seq+1), then prune the old pair. A crash at any point leaves
// either the old pair or the new pair (or both) intact — replay prefers
// the newest readable snapshot.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.degraded {
		return nil
	}
	if err := j.compactLocked(); err != nil {
		j.degradeLocked("compact", err)
	}
	return nil
}

func (j *Journal) compactLocked() error {
	next := j.seq + 1
	snap := snapshot{Seq: next, SavedAt: time.Now().UTC(), Jobs: j.table.records()}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("encode snapshot: %w", err)
	}

	snapPath := filepath.Join(j.dir, snapName(next))
	tmpPath := snapPath + ".tmp"
	tf, err := j.fs.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot temp: %w", err)
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		j.removeQuiet(filepath.Base(tmpPath))
		return fmt.Errorf("snapshot write: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		j.removeQuiet(filepath.Base(tmpPath))
		return fmt.Errorf("snapshot fsync: %w", err)
	}
	j.fsyncs++
	if err := tf.Close(); err != nil {
		j.removeQuiet(filepath.Base(tmpPath))
		return fmt.Errorf("snapshot close: %w", err)
	}
	if err := j.fs.Rename(tmpPath, snapPath); err != nil {
		j.removeQuiet(filepath.Base(tmpPath))
		return fmt.Errorf("snapshot rename: %w", err)
	}
	if err := j.syncDir(); err != nil {
		return fmt.Errorf("snapshot dir fsync: %w", err)
	}

	nf, err := j.fs.OpenFile(filepath.Join(j.dir, segName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("new segment: %w", err)
	}
	if err := j.syncDir(); err != nil {
		nf.Close()
		return fmt.Errorf("segment dir fsync: %w", err)
	}
	old := j.seq
	if j.f != nil {
		_ = j.f.Close()
	}
	j.f = nf
	j.seq = next
	j.segBytes = 0
	j.recs = 0
	j.compactions++

	// Prune the superseded pair. Failure here is harmless — replay
	// prefers the newest snapshot and Open prunes strays — so warn, not
	// degrade.
	j.removeQuiet(segName(old))
	j.removeQuiet(snapName(old))
	return nil
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Appends:       j.appends,
		Fsyncs:        j.fsyncs,
		Compactions:   j.compactions,
		ReplayRecords: j.replayRecords,
		ReplayFenced:  j.replayFenced,
		TornTail:      j.tornTail,
		Degraded:      j.degraded,
		SegmentBytes:  j.segBytes,
		Seq:           j.seq,
		Jobs:          len(j.table.jobs),
	}
}

// Close flushes and closes the journal. Further appends return
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	// j.f is a segment File (os.File or a fault wrapper), never a Journal
	// — this interface Close cannot reenter mu.
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
