package formclient

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"hdsampler/internal/datagen"
)

// FuzzParseResultPage hammers the result-page parser with arbitrary
// bytes: whatever a misbehaving or adversarial site serves, the parser
// must either return a page-format error or a well-formed Result — never
// panic, and never hand back tuples whose shape disagrees with the
// schema. The nightly fuzz smoke run (see .github/workflows/nightly.yml)
// extends these seeds with 30s of coverage-guided exploration.
func FuzzParseResultPage(f *testing.F) {
	schema := datagen.Vehicles(50, 21).Schema
	m := schema.NumAttrs()

	f.Add("")
	f.Add("<html><body></body></html>")
	f.Add(`<div id="status" data-overflow="false"></div><div id="noresults"></div>`)
	f.Add(`<div id="status" data-overflow="true"></div>`)
	f.Add(`<div id="status" data-overflow="maybe"></div>`)
	f.Add(`<div id="status" data-overflow="false"></div><div id="count" data-count="37"></div><div id="noresults"></div>`)
	f.Add(`<div id="status" data-overflow="false"></div><div id="count" data-count="NaN"></div>`)
	f.Add(`<div id="status" data-overflow="false"></div><a id="next" href="/results?page=2"></a><table id="results"><tr><td>#3</td></tr></table>`)
	f.Add(`<div id="status" data-overflow="false"></div><table id="results"><tr><td>#0</td><td>junk</td><td></td><td></td><td></td><td></td></tr></table>`)

	f.Fuzz(func(t *testing.T, body string) {
		res, next, err := parseResultPage(schema, body)
		if err != nil {
			return
		}
		if res == nil {
			t.Fatalf("nil result without error (next=%q)", next)
		}
		for i, tu := range res.Tuples {
			if len(tu.Vals) != m || len(tu.Nums) != m {
				t.Fatalf("tuple %d shape %d/%d vals/nums, want %d for schema", i, len(tu.Vals), len(tu.Nums), m)
			}
		}
	})
}

// FuzzAPIResult does the same for the API connector's result decoding:
// arbitrary bytes go through json.Unmarshal into the wire form and then
// decodeWireResult. Whatever a site serves on /api/search, the decoder
// must return a page-format error or tuples that fit the schema — one
// value per attribute, each inside its attribute's domain — and never
// panic. The nightly fuzz smoke run extends these seeds as well.
func FuzzAPIResult(f *testing.F) {
	schema := datagen.Vehicles(50, 21).Schema
	m := schema.NumAttrs()
	oneRow := func(vals string) string {
		return `{"overflow":false,"count":1,"rows":[{"id":1,"vals":[` + vals + `],"nums":{"price":12500,"nope":1}}]}`
	}

	f.Add("")
	f.Add("{}")
	f.Add("null")
	f.Add(`{"overflow":true,"rows":[]}`)
	f.Add(`{"overflow":false,"count":null,"rows":null}`)
	f.Add(oneRow(strings.Repeat("0,", m-1) + "0"))
	f.Add(oneRow("9999," + strings.Repeat("0,", m-2) + "-3"))
	f.Add(oneRow("1"))
	f.Add(`{"rows":[{"id":4,"vals":"x"}]}`)

	f.Fuzz(func(t *testing.T, body string) {
		var wr wireResult
		if err := json.Unmarshal([]byte(body), &wr); err != nil {
			return
		}
		res, err := decodeWireResult(schema, &wr)
		if err != nil {
			if !errors.Is(err, ErrPageFormat) {
				t.Fatalf("error %v is not ErrPageFormat", err)
			}
			return
		}
		if res == nil {
			t.Fatal("nil result without error")
		}
		for i, tu := range res.Tuples {
			if len(tu.Vals) != m || len(tu.Nums) != m {
				t.Fatalf("tuple %d shape %d/%d vals/nums, want %d for schema", i, len(tu.Vals), len(tu.Nums), m)
			}
			for a, v := range tu.Vals {
				if v < 0 || v >= schema.DomainSize(a) {
					t.Fatalf("tuple %d: value %d out of domain for %q", i, v, schema.Attrs[a].Name)
				}
			}
		}
	})
}
