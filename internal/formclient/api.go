package formclient

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hdsampler/internal/hiddendb"
)

// API is a Conn that uses a site's machine-readable endpoints
// (/api/schema, /api/search) instead of scraping HTML — the counterpart of
// the Google Base API the demo's front end could also target. It shares
// the HTTP transport, retry and rate-limit handling with the HTML
// connector.
type API struct {
	http *HTTP

	mu     sync.Mutex
	schema *hiddendb.Schema

	queries atomic.Int64
}

// NewAPI builds an API connector for the site rooted at baseURL.
func NewAPI(baseURL string, opts HTTPOptions) *API {
	return &API{http: NewHTTP(baseURL, opts)}
}

// wire forms of the API protocol; kept separate from webform's types on
// purpose: the client is an independent consumer of a documented wire
// format, not of the server's internals.
type wireSchema struct {
	Name  string `json:"name"`
	K     int    `json:"k"`
	Attrs []struct {
		Name    string       `json:"name"`
		Kind    string       `json:"kind"`
		Values  []string     `json:"values"`
		Buckets [][2]float64 `json:"buckets"`
	} `json:"attrs"`
}

type wireResult struct {
	Overflow bool `json:"overflow"`
	Count    *int `json:"count"`
	Rows     []struct {
		ID   int                `json:"id"`
		Vals []int              `json:"vals"`
		Nums map[string]float64 `json:"nums"`
	} `json:"rows"`
}

// Schema implements Conn.
func (a *API) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.schema != nil {
		return a.schema, nil
	}
	body, err := a.http.get(ctx, a.http.base+"/api/schema")
	if err != nil {
		return nil, err
	}
	var ws wireSchema
	if err := json.Unmarshal([]byte(body), &ws); err != nil {
		return nil, fmt.Errorf("%w: schema JSON: %v", ErrPageFormat, err)
	}
	attrs := make([]hiddendb.Attribute, 0, len(ws.Attrs))
	for _, wa := range ws.Attrs {
		attr := hiddendb.Attribute{Name: wa.Name, Values: wa.Values}
		switch wa.Kind {
		case "bool":
			attr.Kind = hiddendb.KindBool
		case "numeric":
			attr.Kind = hiddendb.KindNumeric
			for _, b := range wa.Buckets {
				attr.Buckets = append(attr.Buckets, hiddendb.Bucket{Lo: b[0], Hi: b[1]})
			}
		default:
			attr.Kind = hiddendb.KindCategorical
		}
		attrs = append(attrs, attr)
	}
	schema, err := hiddendb.NewSchema(ws.Name, attrs...)
	if err != nil {
		return nil, fmt.Errorf("formclient: API schema invalid: %v", err)
	}
	a.schema = schema
	return schema, nil
}

// Execute implements Conn.
func (a *API) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	schema, err := a.Schema(ctx)
	if err != nil {
		return nil, err
	}
	if err := q.ValidateAgainst(schema); err != nil {
		return nil, err
	}
	u := a.http.base + "/api/search"
	if enc := encodeQueryParams(schema, q); enc != "" {
		u += "?" + enc
	}
	body, err := a.http.get(ctx, u)
	if err != nil {
		return nil, err
	}
	a.queries.Add(1)
	var wr wireResult
	if err := json.Unmarshal([]byte(body), &wr); err != nil {
		return nil, fmt.Errorf("%w: result JSON: %v", ErrPageFormat, err)
	}
	return decodeWireResult(schema, &wr)
}

// decodeWireResult converts one wire result into a hiddendb.Result. Rows
// must match the schema: one value index per attribute, each inside its
// attribute's domain — the API-side counterpart of the HTML scraper
// rejecting an unknown label.
func decodeWireResult(schema *hiddendb.Schema, wr *wireResult) (*hiddendb.Result, error) {
	res := &hiddendb.Result{Overflow: wr.Overflow, Count: hiddendb.CountAbsent}
	if wr.Count != nil {
		res.Count = *wr.Count
	}
	m := schema.NumAttrs()
	for _, row := range wr.Rows {
		if len(row.Vals) != m {
			return nil, fmt.Errorf("%w: row arity %d, want %d", ErrPageFormat, len(row.Vals), m)
		}
		for a, v := range row.Vals {
			if v < 0 || v >= schema.DomainSize(a) {
				return nil, fmt.Errorf("%w: value %d out of domain for %q", ErrPageFormat, v, schema.Attrs[a].Name)
			}
		}
		t := hiddendb.Tuple{ID: row.ID, Vals: row.Vals, Nums: make([]float64, m)}
		for i := 0; i < m; i++ {
			t.Nums[i] = math.NaN()
		}
		for name, v := range row.Nums {
			if idx := schema.AttrIndex(name); idx >= 0 {
				t.Nums[idx] = v
			}
		}
		res.Tuples = append(res.Tuples, t)
	}
	return res, nil
}

// Stats implements Conn.
func (a *API) Stats() Stats {
	s := a.http.Stats()
	s.Queries = a.queries.Load()
	return s
}

var _ Conn = (*API)(nil)
