package store

import (
	"bytes"
	"context"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
)

// FuzzHistoryRestore feeds arbitrary bytes through the warm-start path a
// daemon runs on a HistoryDir checkpoint: ReadHistory, Snapshot, then
// Cache.Restore over a small Local database. Whatever a corrupt or stale
// checkpoint holds, Restore must not panic, and every entry the cache
// dumps afterwards must have rows of schema arity, with in-domain values,
// that match the entry's key. The nightly fuzz smoke run (see
// .github/workflows/nightly.yml) extends these seeds.
func FuzzHistoryRestore(f *testing.F) {
	ds := datagen.IIDBoolean(3, 20, 0.5, 5)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 8})
	if err != nil {
		f.Fatal(err)
	}
	schema := db.Schema()

	var buf bytes.Buffer
	if err := WriteHistory(&buf, NewHistoryDump("seed", sampleSnapshot())); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"entries":[{"key":"","count":1,"tuples":[{"id":1,"vals":[1]}]}]}`))
	f.Add([]byte(`{"entries":[{"key":"0=1","count":1,"tuples":[{"id":1,"vals":[0,5,1]}]}]}`))
	f.Add([]byte(`{"entries":[{"key":"0=1","overflow":true,"tuples":[{"id":1,"vals":[1,0,1],"nums":{"7":3}}]}]}`))
	f.Add([]byte(`{"entries":[{"key":"9=9&0=0"},{"key":"2=1","count":-4}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dump, err := ReadHistory(bytes.NewReader(data))
		if err != nil {
			return
		}
		cache := history.New(formclient.NewLocal(db), history.Options{})
		if _, err := cache.Restore(context.Background(), dump.Snapshot()); err != nil {
			t.Fatal(err)
		}
		for _, e := range cache.Dump().Entries {
			q, err := hiddendb.ParseQueryKey(schema, e.Key)
			if err != nil {
				t.Fatalf("dumped key %q does not parse: %v", e.Key, err)
			}
			for _, tu := range e.Tuples {
				if len(tu.Vals) != schema.NumAttrs() {
					t.Fatalf("entry %q holds a row of arity %d, want %d", e.Key, len(tu.Vals), schema.NumAttrs())
				}
				for a, v := range tu.Vals {
					if v < 0 || v >= schema.DomainSize(a) {
						t.Fatalf("entry %q holds value %d outside attribute %d's domain", e.Key, v, a)
					}
				}
				if !q.Matches(tu.Vals) {
					t.Fatalf("entry %q holds row %v that does not match its key", e.Key, tu.Vals)
				}
			}
		}
	})
}
