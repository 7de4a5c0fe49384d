// Package webform serves a hiddendb.DB behind a conjunctive web form
// interface over HTTP — the stand-in for Google Base in the original demo.
// It renders an HTML search form whose select controls expose the attribute
// domains, answers queries with a top-k HTML results page carrying an
// explicit overflow notification and (optionally) a count estimate, and
// enforces per-client rate limits the way real data providers do.
package webform

import (
	"bytes"
	"fmt"
	"html/template"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
)

// Options configures interface behaviour beyond what the DB itself fixes.
type Options struct {
	// RatePerSec throttles each client to this many queries per second
	// (token bucket); zero disables limiting.
	RatePerSec float64
	// Burst is the token bucket capacity; defaults to 10 when limiting is
	// enabled.
	Burst int
	// PageSize paginates the visible top-k rows, the way real sites split
	// 1000 results over 10 pages; zero renders everything on one page.
	// Every page fetch re-runs the query (and is rate limited), exactly
	// like a live site.
	PageSize int
	// Metrics, when set, registers the interface's request counters,
	// rate-limit rejections and request-latency histogram into this
	// registry (hiddendbd serves it on /metrics). Nil disables
	// instrumentation entirely.
	Metrics *telemetry.Registry
	// Now lets tests control time; defaults to time.Now.
	Now func() time.Time
}

// Server is an http.Handler exposing one hidden database.
type Server struct {
	db   *hiddendb.DB
	opts Options
	mux  *http.ServeMux

	mu      sync.Mutex
	buckets map[string]*bucket

	// Telemetry instruments (nil — and free — without Options.Metrics).
	reqs    *telemetry.CounterVec
	limited *telemetry.Counter
	latency *telemetry.Histogram
}

// NewServer builds the handler for db.
func NewServer(db *hiddendb.DB, opts Options) *Server {
	if opts.Burst <= 0 {
		opts.Burst = 10
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Server{db: db, opts: opts, buckets: make(map[string]*bucket)}
	if reg := opts.Metrics; reg != nil {
		s.reqs = reg.CounterVec("webform_requests_total",
			"Interface requests served, by endpoint.", "endpoint")
		s.limited = reg.Counter("webform_rate_limited_total",
			"Requests rejected with 429 by the per-client rate limiter.")
		s.latency = reg.Histogram("webform_request_seconds",
			"Interface request handling latency (all endpoints).")
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/{$}", s.instrument("form", s.handleForm))
	s.mux.HandleFunc("/search", s.instrument("search", s.handleSearch))
	s.mux.HandleFunc("/item/", s.instrument("item", s.handleItem))
	return s
}

// instrument wraps a handler with the per-endpoint request counter and the
// latency histogram; without a registry it returns the handler untouched.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if s.reqs == nil {
		return h
	}
	c := s.reqs.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		start := time.Now()
		h(w, r)
		s.latency.Observe(time.Since(start))
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// bucket is a token bucket replenished lazily.
type bucket struct {
	tokens float64
	last   time.Time
}

// allow consumes a token for the client, returning (ok, wait-duration).
func (s *Server) allow(client string) (bool, time.Duration) {
	if s.opts.RatePerSec <= 0 {
		return true, 0
	}
	now := s.opts.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[client]
	if !ok {
		b = &bucket{tokens: float64(s.opts.Burst), last: now}
		s.buckets[client] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	b.last = now
	b.tokens = math.Min(float64(s.opts.Burst), b.tokens+elapsed*s.opts.RatePerSec)
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / s.opts.RatePerSec * float64(time.Second))
	return false, wait
}

func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) rateLimited(w http.ResponseWriter, r *http.Request) bool {
	ok, wait := s.allow(clientKey(r))
	if ok {
		return false
	}
	// Round up, so a client that honours the hint is never early.
	ms := (wait + time.Millisecond - 1).Milliseconds()
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(wait.Seconds()))))
	w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(ms, 10))
	http.Error(w, "query rate limit exceeded", http.StatusTooManyRequests)
	s.limited.Inc()
	return true
}

var formTmpl = template.Must(template.New("form").Parse(`<!DOCTYPE html>
<html>
<head><title>{{.Title}}</title></head>
<body>
<h1>{{.Title}}</h1>
<form name="search" action="/search" method="get">
{{range .Attrs}}  <label for="{{.Name}}">{{.Name}}</label>
  <select name="{{.Name}}" id="{{.Name}}">
    <option value="">any</option>
{{range .Options}}    <option value="{{.Index}}">{{.Label}}</option>
{{end}}  </select>
{{end}}  <input type="submit" value="Search">
</form>
<p id="meta" data-k="{{.K}}" data-countmode="{{.CountMode}}">At most the top {{.K}} matching items are shown per query.</p>
</body>
</html>
`))

type formAttr struct {
	Name    string
	Options []formOption
}

type formOption struct {
	Index int
	Label string
}

func (s *Server) handleForm(w http.ResponseWriter, r *http.Request) {
	schema := s.db.Schema()
	data := struct {
		Title     string
		Attrs     []formAttr
		K         int
		CountMode string
	}{Title: schema.Name, K: s.db.K(), CountMode: s.db.CountMode().String()}
	for _, a := range schema.Attrs {
		fa := formAttr{Name: a.Name}
		for i, v := range a.Values {
			fa.Options = append(fa.Options, formOption{Index: i, Label: v})
		}
		data.Attrs = append(data.Attrs, fa)
	}
	renderHTML(w, formTmpl, data)
}

// renderHTML executes the template into a buffer before writing, so a
// template error yields a clean 500 and a client that disconnects
// mid-response (a cancelled sampler) cannot provoke a second
// WriteHeader.
func renderHTML(w http.ResponseWriter, tmpl *template.Template, data any) {
	var buf bytes.Buffer
	if err := tmpl.Execute(&buf, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// parseQuery translates form parameters (attrName=valueIndex, empty = any)
// into a canonical Query.
func (s *Server) parseQuery(r *http.Request) (hiddendb.Query, error) {
	schema := s.db.Schema()
	q := hiddendb.EmptyQuery()
	params := r.URL.Query()
	for name, vals := range params {
		attr := schema.AttrIndex(name)
		if attr < 0 {
			continue // tolerate unrelated params (tracking junk etc.)
		}
		if len(vals) == 0 || vals[0] == "" {
			continue
		}
		idx, err := strconv.Atoi(vals[0])
		if err != nil {
			return q, fmt.Errorf("webform: bad value %q for %q", vals[0], name)
		}
		if idx < 0 || idx >= schema.DomainSize(attr) {
			return q, fmt.Errorf("webform: value %d out of range for %q", idx, name)
		}
		q = q.With(attr, idx)
	}
	return q, nil
}

var resultsTmpl = template.Must(template.New("results").Parse(`<!DOCTYPE html>
<html>
<head><title>{{.Title}} - results</title></head>
<body>
<h1>{{.Title}}</h1>
<div id="status" data-overflow="{{.OverflowStr}}">{{.Status}}</div>
{{if .HasCount}}<span id="count" data-count="{{.Count}}">about {{.Count}} matching items</span>
{{end}}{{if .Rows}}<table id="results">
<tr><th>item</th>{{range .Header}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr><td><a href="/item/{{.ID}}">#{{.ID}}</a></td>{{range .Cells}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table>
{{else}}<p id="noresults">No results found.</p>
{{end}}{{if .HasPages}}<span id="pageinfo" data-page="{{.Page}}" data-pages="{{.Pages}}">page {{.PageHuman}} of {{.Pages}}</span>
{{if .NextURL}}<a id="next" href="{{.NextURL}}">next page</a>
{{end}}{{end}}<a href="/">new search</a>
</body>
</html>
`))

type resultRow struct {
	ID    int
	Cells []string
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.rateLimited(w, r) {
		return
	}
	q, err := s.parseQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	page := 0
	if p := r.URL.Query().Get("page"); p != "" {
		page, err = strconv.Atoi(p)
		if err != nil || page < 0 {
			http.Error(w, "bad page", http.StatusBadRequest)
			return
		}
	}
	res, err := s.db.Execute(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	schema := s.db.Schema()
	data := struct {
		Title       string
		OverflowStr string
		Status      string
		HasCount    bool
		Count       int
		Header      []string
		Rows        []resultRow
		HasPages    bool
		Page        int
		PageHuman   int
		Pages       int
		NextURL     string
	}{Title: schema.Name, HasCount: res.Count != hiddendb.CountAbsent, Count: res.Count}
	if res.Overflow {
		data.OverflowStr = "true"
		data.Status = fmt.Sprintf("Result overflow: showing only the top %d matching items.", len(res.Tuples))
	} else {
		data.OverflowStr = "false"
		data.Status = fmt.Sprintf("Showing all %d matching items.", len(res.Tuples))
	}
	rows := res.Tuples
	if ps := s.opts.PageSize; ps > 0 && len(rows) > 0 {
		pages := (len(rows) + ps - 1) / ps
		if page >= pages {
			http.Error(w, "page beyond results", http.StatusBadRequest)
			return
		}
		lo := page * ps
		hi := lo + ps
		if hi > len(rows) {
			hi = len(rows)
		}
		rows = rows[lo:hi]
		data.HasPages = pages > 1
		data.Page = page
		data.PageHuman = page + 1
		data.Pages = pages
		if page+1 < pages {
			next := r.URL.Query()
			next.Set("page", strconv.Itoa(page+1))
			data.NextURL = "/search?" + next.Encode()
		}
	}
	for _, a := range schema.Attrs {
		data.Header = append(data.Header, a.Name)
	}
	for i := range rows {
		data.Rows = append(data.Rows, resultRow{ID: rows[i].ID, Cells: renderCells(schema, &rows[i])})
	}
	renderHTML(w, resultsTmpl, data)
}

// renderCells renders a tuple the way a listing site would: labels for
// boolean/categorical attributes, the raw numeric value for numeric ones.
func renderCells(schema *hiddendb.Schema, t *hiddendb.Tuple) []string {
	cells := make([]string, len(schema.Attrs))
	for a := range schema.Attrs {
		attr := &schema.Attrs[a]
		if attr.Kind == hiddendb.KindNumeric {
			if v, ok := t.Num(a); ok {
				cells[a] = strconv.FormatFloat(v, 'f', -1, 64)
				continue
			}
			// No raw payload: fall back to the bucket label.
		}
		cells[a] = attr.Values[t.Vals[a]]
	}
	return cells
}

var itemTmpl = template.Must(template.New("item").Parse(`<!DOCTYPE html>
<html><head><title>item {{.ID}}</title></head>
<body><h1>Item #{{.ID}}</h1>
<table id="item">
{{range .Fields}}<tr><th>{{.Name}}</th><td>{{.Value}}</td></tr>
{{end}}</table>
</body></html>
`))

func (s *Server) handleItem(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/item/")
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 || id >= s.db.Size() {
		http.NotFound(w, r)
		return
	}
	t := s.db.Tuple(id)
	schema := s.db.Schema()
	cells := renderCells(schema, &t)
	data := struct {
		ID     int
		Fields []struct{ Name, Value string }
	}{ID: id}
	for a := range schema.Attrs {
		data.Fields = append(data.Fields, struct{ Name, Value string }{schema.Attrs[a].Name, cells[a]})
	}
	renderHTML(w, itemTmpl, data)
}
