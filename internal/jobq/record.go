package jobq

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// Record ops. The journal is an op log over the job table: admissions,
// lease grants (each bumping the job's epoch), mid-run progress
// checkpoints and terminal transitions. Replay applies them in order.
const (
	opAdmit = "admit"
	opLease = "lease"
	opCkpt  = "ckpt"
	opTerm  = "term"
)

// record is one journal entry on the wire (JSON inside a CRC frame).
type record struct {
	Op    string    `json:"op"`
	Job   string    `json:"job"`
	Epoch int64     `json:"epoch,omitempty"`
	At    time.Time `json:"at"`

	// Spec is the opaque job specification (admit records). The journal
	// never interprets it; the owner round-trips its own encoding.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Ckpt carries a progress checkpoint (ckpt records) or final stats
	// (term records, Samples/Bills stripped).
	Ckpt *Checkpoint `json:"ckpt,omitempty"`
	// State/Pointer/Err describe terminal records: the terminal state
	// name, the on-disk sample-set checkpoint the job left behind, and
	// the error message (empty on clean completion).
	State   string `json:"state,omitempty"`
	Pointer string `json:"pointer,omitempty"`
	Err     string `json:"err,omitempty"`
}

// Checkpoint is a mid-run progress checkpoint: everything a restarted
// daemon needs to resume the job without losing paid-for work.
type Checkpoint struct {
	// Accepted/Candidates/Rejected/Queries/QueriesSaved mirror the
	// sampler's cumulative stats at checkpoint time. Queries is the
	// cumulative interface bill — monotone across checkpoints and across
	// crash/resume boundaries.
	Accepted     int64 `json:"accepted"`
	Candidates   int64 `json:"candidates"`
	Rejected     int64 `json:"rejected"`
	Queries      int64 `json:"queries"`
	QueriesSaved int64 `json:"queries_saved"`
	// ElapsedSeconds is the sampling wall time spent so far.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Bills holds the per-accepted-candidate query bills, aligned with
	// the samples, so resumed accounting keeps per-draw provenance.
	Bills []int64 `json:"bills,omitempty"`
	// Samples is the opaque accepted-sample payload (a store.SampleSet
	// in the daemon); the journal only stores and returns it.
	Samples json.RawMessage `json:"samples,omitempty"`
}

// Terminal is a job's terminal transition as replay reports it.
type Terminal struct {
	// State is the owner's terminal state name (e.g. "completed").
	State string `json:"state"`
	// Pointer is the on-disk sample-set checkpoint path ("" when the job
	// left no samples).
	Pointer string `json:"pointer,omitempty"`
	// Err is the terminal error message, empty on clean completion.
	Err string `json:"err,omitempty"`
	// Stats carries the final cumulative stats (no samples payload).
	Stats *Checkpoint `json:"stats,omitempty"`
	At    time.Time   `json:"at"`
}

// JobRecord is one job's replayed (or live, inside a snapshot) state.
type JobRecord struct {
	ID      string          `json:"id"`
	Spec    json.RawMessage `json:"spec"`
	Created time.Time       `json:"created"`
	// Epoch is the latest lease epoch: 0 before the first lease, bumped
	// by one on every lease (initial run and each post-crash requeue).
	Epoch int64 `json:"epoch"`
	// Started is the latest lease time (zero if never leased).
	Started time.Time `json:"started,omitempty"`
	// Ckpt is the latest non-stale progress checkpoint, nil if none.
	Ckpt *Checkpoint `json:"ckpt,omitempty"`
	// Terminal is the terminal transition; nil means the job was queued
	// or running when the journal stopped — an interrupted job the owner
	// must requeue under a fresh lease.
	Terminal *Terminal `json:"terminal,omitempty"`
}

// table is the in-memory job table the journal maintains for fencing and
// compaction snapshots; replay rebuilds it from disk.
type table struct {
	jobs  map[string]*JobRecord
	order []string
	// fenced counts stale-epoch records dropped during replay.
	fenced int64
}

func newTable() *table {
	return &table{jobs: make(map[string]*JobRecord)}
}

// records returns the jobs in admission order (the snapshot body).
func (t *table) records() []*JobRecord {
	out := make([]*JobRecord, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.jobs[id])
	}
	return out
}

// load rebuilds the table from snapshot records.
func (t *table) load(jobs []*JobRecord) {
	for _, jr := range jobs {
		if jr == nil || jr.ID == "" {
			continue
		}
		if _, ok := t.jobs[jr.ID]; ok {
			continue
		}
		t.jobs[jr.ID] = jr
		t.order = append(t.order, jr.ID)
	}
}

// Errors the journal returns. Fencing errors (ErrStaleEpoch) are
// correctness signals and surface even in degraded mode.
var (
	ErrStaleEpoch = fmt.Errorf("jobq: stale epoch (job was re-leased; zombie writer fenced)")
	ErrUnknownJob = fmt.Errorf("jobq: unknown job")
	ErrExists     = fmt.Errorf("jobq: job already admitted")
	ErrTerminal   = fmt.Errorf("jobq: job already terminal")
	ErrClosed     = fmt.Errorf("jobq: journal closed")
)

// apply folds one record into the table. live selects strict mode: a
// conflicting record is an error before anything reaches disk. Replay
// mode tolerates and counts what fencing would have rejected (a crashed
// writer can never have appended one, but replay must never wedge on a
// corrupt tail's salvageable prefix).
func (t *table) apply(rec *record, live bool) error {
	switch rec.Op {
	case opAdmit:
		if _, ok := t.jobs[rec.Job]; ok {
			if live {
				return fmt.Errorf("%w: %s", ErrExists, rec.Job)
			}
			return nil
		}
		t.jobs[rec.Job] = &JobRecord{ID: rec.Job, Spec: rec.Spec, Created: rec.At}
		t.order = append(t.order, rec.Job)
		return nil
	case opLease:
		jr, ok := t.jobs[rec.Job]
		if !ok {
			if live {
				return fmt.Errorf("%w: %s", ErrUnknownJob, rec.Job)
			}
			return nil
		}
		if jr.Terminal != nil {
			if live {
				return fmt.Errorf("%w: %s", ErrTerminal, rec.Job)
			}
			t.fenced++
			return nil
		}
		if rec.Epoch <= jr.Epoch {
			if live {
				return fmt.Errorf("%w: job %s epoch %d, have %d", ErrStaleEpoch, rec.Job, rec.Epoch, jr.Epoch)
			}
			t.fenced++
			return nil
		}
		jr.Epoch = rec.Epoch
		jr.Started = rec.At
		return nil
	case opCkpt:
		jr, ok := t.jobs[rec.Job]
		if !ok {
			if live {
				return fmt.Errorf("%w: %s", ErrUnknownJob, rec.Job)
			}
			return nil
		}
		if jr.Terminal != nil {
			if live {
				return fmt.Errorf("%w: %s", ErrTerminal, rec.Job)
			}
			t.fenced++
			return nil
		}
		if rec.Epoch != jr.Epoch {
			if live {
				return fmt.Errorf("%w: job %s epoch %d, have %d", ErrStaleEpoch, rec.Job, rec.Epoch, jr.Epoch)
			}
			t.fenced++
			return nil
		}
		jr.Ckpt = rec.Ckpt
		return nil
	case opTerm:
		jr, ok := t.jobs[rec.Job]
		if !ok {
			if live {
				return fmt.Errorf("%w: %s", ErrUnknownJob, rec.Job)
			}
			return nil
		}
		if jr.Terminal != nil {
			if live {
				return fmt.Errorf("%w: %s", ErrTerminal, rec.Job)
			}
			t.fenced++
			return nil
		}
		if rec.Epoch != jr.Epoch {
			if live {
				return fmt.Errorf("%w: job %s epoch %d, have %d", ErrStaleEpoch, rec.Job, rec.Epoch, jr.Epoch)
			}
			t.fenced++
			return nil
		}
		jr.Terminal = &Terminal{
			State: rec.State, Pointer: rec.Pointer, Err: rec.Err,
			Stats: rec.Ckpt, At: rec.At,
		}
		return nil
	default:
		if live {
			return fmt.Errorf("jobq: unknown record op %q", rec.Op)
		}
		return nil
	}
}

// Frame format: 4-byte little-endian payload length, 4-byte CRC-32C of
// the payload, then the payload. A frame whose length field exceeds the
// record bound, whose bytes run past the file, or whose CRC mismatches
// marks the torn tail: replay keeps everything before it.
const frameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame appends the framed record to buf.
func encodeFrame(buf []byte, rec *record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("jobq: encode record: %w", err)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// maxRecordBytes bounds one record payload: replay treats a larger
// length field as the torn tail, so a garbage length cannot allocate
// gigabytes.
const maxRecordBytes = 64 << 20

// decodeFrames walks data, invoking fn per valid record, and returns the
// byte offset of the valid prefix plus whether a torn/corrupt tail was
// cut.
func decodeFrames(data []byte, fn func(*record)) (valid int64, torn bool) {
	off := 0
	for {
		if off == len(data) {
			return int64(off), false
		}
		if len(data)-off < frameHeader {
			return int64(off), true
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n < 0 || n > maxRecordBytes || off+frameHeader+n > len(data) {
			return int64(off), true
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != crc {
			return int64(off), true
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A CRC-valid frame that fails to parse is corruption past
			// what a torn write explains; still cut the tail rather than
			// wedge — the frames before it are intact.
			return int64(off), true
		}
		fn(&rec)
		off += frameHeader + n
	}
}

// readAll drains a File (FS has no Stat; segments are bounded by
// compaction, so buffering one in memory is fine).
func readAll(f File) ([]byte, error) {
	return io.ReadAll(f)
}
