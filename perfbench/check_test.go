package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
)

func TestRowIndexChecksSamplesByValue(t *testing.T) {
	ds := datagen.Vehicles(2000, 3)
	ix := newRowIndex(ds.Schema, ds.Tuples)
	rows := []hiddendb.Tuple{ds.Tuples[5], ds.Tuples[1999]}
	if err := ix.checkSamples(rows, 2); err != nil {
		t.Fatal(err)
	}
	if err := ix.checkSamples(rows, 3); err == nil {
		t.Error("short job accepted")
	}
	other := datagen.Vehicles(2000, 4)
	foreign := 0
	for _, r := range other.Tuples {
		if !ix.contains(r.Vals) {
			foreign++
		}
	}
	if foreign == 0 {
		t.Fatal("every row of another seed's dataset is found; the index checks nothing")
	}
	bad := hiddendb.Tuple{Vals: append([]int(nil), ds.Tuples[0].Vals...)}
	bad.Vals[0] = -1
	if err := ix.checkSamples([]hiddendb.Tuple{bad}, 1); err == nil || !strings.Contains(err.Error(), "not a row") {
		t.Errorf("altered row accepted: %v", err)
	}
	if ix.contains(ds.Tuples[0].Vals[:3]) {
		t.Error("wrong-arity row accepted")
	}
}

func TestDeterminismRecord(t *testing.T) {
	dir := t.TempDir()
	a := ledgerTotals{Jobs: 100, Samples: 2000, Queries: 17950, Wire: -1}
	if err := determinism(dir, recordKey("w", 1, "b"), a); err != nil {
		t.Fatal(err)
	}
	if err := determinism(dir, recordKey("w", 1, "b"), a); err != nil {
		t.Fatalf("same ledger rejected: %v", err)
	}
	b := a
	b.Queries++
	if err := determinism(dir, recordKey("w", 1, "b"), b); err == nil {
		t.Error("changed query count accepted")
	}
	if err := determinism(dir, recordKey("w", 2, "b"), b); err != nil {
		t.Errorf("another seed's ledger compared: %v", err)
	}
}

func TestDeterminismRecordIsPerBuild(t *testing.T) {
	dir := t.TempDir()
	bin := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o755); err != nil {
			t.Fatal(err)
		}
		return p
	}
	daemon := bin("daemon", "daemon build")
	old, err := buildID(bin("old", "sampler build 1"), daemon)
	if err != nil {
		t.Fatal(err)
	}
	again, err := buildID(bin("same", "sampler build 1"), daemon)
	if err != nil || again != old {
		t.Fatalf("identical binaries hash to %q and %q (err %v)", old, again, err)
	}
	changed, err := buildID(bin("new", "sampler build 2"), daemon)
	if err != nil || changed == old {
		t.Fatalf("changed binary kept build id %q (err %v)", changed, err)
	}

	state := filepath.Join(dir, "state")
	a := ledgerTotals{Jobs: 100, Samples: 20000, Queries: 112000, Wire: 80000}
	if err := determinism(state, recordKey("w", 1, old), a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Queries, b.Wire = 111000, 79000 // what a changed sampler bills
	if err := determinism(state, recordKey("w", 1, changed), b); err != nil {
		t.Errorf("changed build compared against the old build's record: %v", err)
	}
	if err := determinism(state, recordKey("w", 1, old), b); err == nil {
		t.Error("old build accepted another ledger")
	}
	if _, err := buildID(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing binary hashed")
	}
}

func TestLedgerNeedsEveryJob(t *testing.T) {
	p := phase{jobs: []jobOutcome{
		{idx: 0, samples: 20, queries: 180, wire: 70},
		{idx: 1, samples: 20, queries: 170, wire: 60},
		{idx: 2, samples: 20, queries: 190, wire: -1},
	}}
	got, err := p.ledger(2)
	if err != nil || got != (ledgerTotals{Jobs: 2, Samples: 40, Queries: 350, Wire: 130}) {
		t.Errorf("ledger(2) = %+v, %v", got, err)
	}
	if got, _ := p.ledger(3); got.Wire != -1 {
		t.Errorf("inseparable wire count summed: %+v", got)
	}
	if _, err := p.ledger(4); err == nil {
		t.Error("ledger longer than the phase accepted")
	}
}
