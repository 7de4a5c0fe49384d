package jobq

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzJournalReplay replays arbitrary bytes as the journal's first
// segment, in one of two forms: the raw bytes, so framing and torn-tail
// handling see them, or the bytes as one CRC-valid frame after a valid
// admit frame, so JSON decoding and the table's replay see arbitrary
// payloads. Open must not panic, and a journal that opens must replay
// the same jobs again after Close. The nightly fuzz smoke run (see
// .github/workflows/nightly.yml) extends these seeds.
func FuzzJournalReplay(f *testing.F) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	admitRec := &record{Op: opAdmit, Job: "j-0001", At: at, Spec: json.RawMessage(`{"n":10}`)}
	admitFrame, err := encodeFrame(nil, admitRec)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []*record{
		admitRec,
		{Op: opLease, Job: "j-0001", Epoch: 1, At: at},
		{Op: opCkpt, Job: "j-0001", Epoch: 1, At: at,
			Ckpt: &Checkpoint{Accepted: 2, Queries: 9, Bills: []int64{4, 5}, Samples: json.RawMessage(`{"n":2}`)}},
		{Op: opTerm, Job: "j-0001", Epoch: 1, At: at, State: "completed", Pointer: "j-0001.json"},
	} {
		payload, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, false)
		f.Add(appendRawFrame(append([]byte(nil), admitFrame...), payload), true)
	}

	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		seg := data
		if !raw {
			seg = appendRawFrame(append([]byte(nil), admitFrame...), data)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Open(dir, Options{NoSync: true})
		if err != nil {
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, rep2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen after Close: %v", err)
		}
		defer j2.Close()
		if !reflect.DeepEqual(rep.Jobs, rep2.Jobs) {
			first, _ := json.Marshal(rep.Jobs)
			second, _ := json.Marshal(rep2.Jobs)
			t.Fatalf("reopen replayed different jobs:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}

// appendRawFrame frames payload as the journal does, CRC and all,
// whatever the payload holds.
func appendRawFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return append(append(buf, hdr[:]...), payload...)
}
