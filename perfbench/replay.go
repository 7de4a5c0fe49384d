package main

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

// maxReplay bounds the queries replayed per traced run: longer traces are
// cut to their first maxReplay queries, kept in order so consecutive
// drill-down queries reuse warm posting lists as they did live.
const maxReplay = 10000

// replayStats is what replaying a recorded wire-query trace showed.
type replayStats struct {
	Queries       int
	ExecuteMeanUS float64
	ExecuteP99US  float64
	RowsPerAnswer float64
	OverflowRatio float64
	// RespBytes is the mean response body the web form renders for the
	// same queries at path (0 without a path).
	RespBytes float64
}

// replay re-executes the recorded wire queries against db — the same data
// and configuration the target serves — timing each hiddendb.DB.Execute,
// and, when path is set (such as "/search"), renders each answer
// through a webform.Server over db to size the response. between, when
// set, runs untimed before each query.
func replay(db *hiddendb.DB, qs []hiddendb.Query, path string, between func()) (replayStats, error) {
	var st replayStats
	qs = qs[:min(len(qs), maxReplay)]
	var srv *webform.Server
	if path != "" {
		srv = webform.NewServer(db, webform.Options{})
	}
	var execUS []float64
	var rows, overflow, bytes float64
	for _, q := range qs {
		if between != nil {
			between()
		}
		t := time.Now()
		res, err := db.Execute(q)
		d := time.Since(t)
		if err != nil {
			return st, fmt.Errorf("replay %s: %w", q, err)
		}
		execUS = append(execUS, float64(d.Nanoseconds())/1e3)
		rows += float64(len(res.Tuples))
		if res.Overflow {
			overflow++
		}
		if srv != nil {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", path+"?"+encodeQuery(db.Schema(), q), nil))
			if rec.Code != 200 {
				return st, fmt.Errorf("replay %s%s: status %d", path, q, rec.Code)
			}
			bytes += float64(rec.Body.Len())
		}
	}
	n := float64(len(execUS))
	if n == 0 {
		return st, nil
	}
	st.Queries = len(execUS)
	st.ExecuteMeanUS = mean(execUS)
	st.ExecuteP99US = nearestRank(execUS, 0.99)
	st.RowsPerAnswer = rows / n
	st.OverflowRatio = overflow / n
	st.RespBytes = bytes / n
	return st, nil
}

// encodeQuery renders a query as the web form's parameters
// (attribute name = value index).
func encodeQuery(schema *hiddendb.Schema, q hiddendb.Query) string {
	var b strings.Builder
	for i := 0; i < q.Len(); i++ {
		p := q.Pred(i)
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString(url.QueryEscape(schema.Attrs[p.Attr].Name))
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(p.Value))
	}
	return b.String()
}
