package webform

import (
	"net/http"
	"net/url"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// FuzzParseQuery feeds arbitrary query strings to the search form's
// parameter parsing: never a panic, and every accepted query valid for the
// schema. It also builds a valid query from pick (one byte per attribute:
// a value, or "any") and requires the scraping client's encoding of it,
// formclient.EncodeQueryParams, to parse back to the same query. The
// nightly fuzz smoke run extends the seeds.
func FuzzParseQuery(f *testing.F) {
	ds := datagen.Vehicles(50, 21)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 10})
	if err != nil {
		f.Fatal(err)
	}
	s := NewServer(db, Options{})
	schema := db.Schema()
	parse := func(raw string) (hiddendb.Query, error) {
		return s.parseQuery(&http.Request{URL: &url.URL{RawQuery: raw}})
	}

	f.Add("", []byte{})
	f.Add("make=1&condition=0", []byte{1, 0, 0})
	f.Add("make=&model=47&page=2&utm=x", []byte{255, 47})
	f.Add("make=-1", []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add("make=99999999999999999999", []byte{0})
	f.Add("make=1&make=2;price=%zz", []byte{3, 200})
	f.Add("%6Dake=0x1&doors=+2", []byte{})

	f.Fuzz(func(t *testing.T, raw string, pick []byte) {
		if q, err := parse(raw); err == nil {
			if err := q.ValidateAgainst(schema); err != nil {
				t.Fatalf("accepted %q as %v, invalid for the schema: %v", raw, q, err)
			}
		}

		q := hiddendb.EmptyQuery()
		for a := 0; a < schema.NumAttrs() && a < len(pick); a++ {
			if v := int(pick[a]) % (schema.DomainSize(a) + 1); v < schema.DomainSize(a) {
				q = q.With(a, v)
			}
		}
		enc := formclient.EncodeQueryParams(schema, q)
		back, err := parse(enc)
		if err != nil {
			t.Fatalf("%v encoded as %q: parse error %v", q, enc, err)
		}
		if back.Key() != q.Key() {
			t.Fatalf("%v encoded as %q parsed back as %v", q, enc, back)
		}
	})
}
