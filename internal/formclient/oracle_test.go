package formclient

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"hdsampler/internal/hiddendb"
	"hdsampler/internal/htmlx"
)

// This file keeps the DOM-based result-page parser the HTTP connector
// used before decodeResultPage, as the oracle the one-pass decoder is
// checked against (FuzzParseResultPage, TestDecodeMatchesOracle). It
// builds the full htmlx tree for every page; production never calls it.

// errOracleRow marks the oracle's failures caused by a row's contents —
// the failures an unwanted overflow page is spared.
var errOracleRow = errors.New("row content")

// parseResultPage reads a result page with the htmlx DOM into a hiddendb.Result plus the
// next-page link when the site paginates (empty when this is the last or
// only page).
func parseResultPage(schema *hiddendb.Schema, body string) (*hiddendb.Result, string, error) {
	root := htmlx.Parse(body)
	status := root.ByID("status")
	if status == nil {
		return nil, "", fmt.Errorf("%w: missing status marker", ErrPageFormat)
	}
	res := &hiddendb.Result{Count: hiddendb.CountAbsent}
	switch ov, _ := status.Attr("data-overflow"); ov {
	case "true":
		res.Overflow = true
	case "false":
	default:
		return nil, "", fmt.Errorf("%w: bad overflow marker %q", ErrPageFormat, ov)
	}
	if c := root.ByID("count"); c != nil {
		if v, ok := c.Attr("data-count"); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, "", fmt.Errorf("%w: bad count %q", ErrPageFormat, v)
			}
			res.Count = n
		}
	}
	next := ""
	if a := root.ByID("next"); a != nil {
		next = a.AttrOr("href", "")
	}
	tbl := htmlx.TableByID(root, "results")
	if tbl == nil {
		if root.ByID("noresults") == nil && res.Overflow {
			return nil, "", fmt.Errorf("%w: overflow page without results table", ErrPageFormat)
		}
		return res, next, nil
	}
	for rowIdx, row := range tbl.Rows {
		if len(row) != schema.NumAttrs()+1 {
			return nil, "", fmt.Errorf("%w: %w: row %d has %d cells, want %d",
				errOracleRow, ErrPageFormat, rowIdx, len(row), schema.NumAttrs()+1)
		}
		t, err := parseRow(schema, row)
		if err != nil {
			return nil, "", fmt.Errorf("%w: row %d: %w", errOracleRow, rowIdx, err)
		}
		res.Tuples = append(res.Tuples, t)
	}
	return res, next, nil
}

// parseRow converts a result-table row (item link cell + one cell per
// attribute) back into a tuple.
func parseRow(schema *hiddendb.Schema, row []htmlx.Cell) (hiddendb.Tuple, error) {
	t := hiddendb.Tuple{ID: -1}
	if id, err := strconv.Atoi(strings.TrimPrefix(row[0].Text, "#")); err == nil {
		t.ID = id
	}
	m := schema.NumAttrs()
	t.Vals = make([]int, m)
	t.Nums = make([]float64, m)
	for a := 0; a < m; a++ {
		t.Nums[a] = math.NaN()
		attr := &schema.Attrs[a]
		text := row[a+1].Text
		if attr.Kind == hiddendb.KindNumeric {
			if raw, err := strconv.ParseFloat(text, 64); err == nil {
				b := attr.BucketOf(raw)
				if b < 0 {
					return t, fmt.Errorf("%w: value %g outside buckets of %q", ErrPageFormat, raw, attr.Name)
				}
				t.Vals[a] = b
				t.Nums[a] = raw
				continue
			}
			// Fall through: site may render the bucket label itself.
		}
		idx := attr.ValueIndex(text)
		if idx < 0 {
			return t, fmt.Errorf("%w: unknown label %q for attribute %q", ErrPageFormat, text, attr.Name)
		}
		t.Vals[a] = idx
	}
	return t, nil
}
