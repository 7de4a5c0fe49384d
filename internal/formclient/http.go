package formclient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdsampler/internal/hiddendb"
	"hdsampler/internal/htmlx"
	"hdsampler/internal/telemetry"
)

// ErrPageFormat reports that a page fetched from the target site did not
// contain the structure the scraper expects (missing form, status marker or
// results table).
var ErrPageFormat = errors.New("formclient: unrecognized page format")

// ErrRateLimited reports that the site kept answering 429 past the retry
// budget.
var ErrRateLimited = errors.New("formclient: rate limited beyond retry budget")

// ErrTransient reports a fault that is the site's (or the network's)
// problem, not the query's: a 5xx blip or a timed-out request. The
// connector retries these within its budget; past it the error surfaces
// wrapped in ErrTransient so upper layers (the samplers, the scenario
// harness) can distinguish "try again later" from "this query is wrong".
var ErrTransient = errors.New("formclient: transient interface fault")

// MaxAttempts is the retry budget of one request, the first attempt
// included: 429 Too Many Requests answers, 5xx answers and timed-out
// requests together spend it. It is the query stack's only retry loop;
// faultform plays the same budget.
const MaxAttempts = 5

// maxRetryWait caps the backoff before any one retry.
const maxRetryWait = 5 * time.Second

// HTTPOptions tunes an HTTP connector.
type HTTPOptions struct {
	// Client is the http.Client to use; defaults to a client with a 30s
	// timeout.
	Client *http.Client
	// Sleep is the sleep function for retry backoff, overridable by tests;
	// defaults to a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

// HTTP is a Conn that drives a remote conjunctive web form interface. Its
// zero value is not usable; construct with NewHTTP.
type HTTP struct {
	base string
	opts HTTPOptions

	mu     sync.Mutex
	schema *hiddendb.Schema
	lane   chan struct{} // the 429 retry lane; see get

	queries    atomic.Int64
	requests   atomic.Int64
	retries    atomic.Int64
	transients atomic.Int64
}

// NewHTTP builds a connector for the site rooted at baseURL, e.g.
// "http://dealer.example.com". The connector performs schema discovery
// lazily on first use.
func NewHTTP(baseURL string, opts HTTPOptions) *HTTP {
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.Sleep == nil {
		opts.Sleep = sleepCtx
	}
	return &HTTP{base: strings.TrimRight(baseURL, "/"), opts: opts, lane: make(chan struct{}, 1)}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// get fetches a URL with rate-limit and transient-fault retries and
// returns the body. Every request the connector sends goes through it —
// the schema page and each page of a paginated answer included — so each
// gets its own budget of MaxAttempts attempts.
//
// Two fault families are retried within the shared budget but counted
// separately: 429s are the site's pushback (RateLimitRetries), waited
// out for its Retry-After, while 5xx blips and timed-out requests are
// plain flakiness (TransientRetries), which Stats.QueriesRetried
// reports. A traced walk also counts each transient retry on its open
// level.
//
// A request answered 429 holds the connector's lane until it returns, and
// a new request queues behind the lane. So requests woken by one
// Retry-After retry one at a time, in the order the site refused them,
// instead of racing for its next token and losing whole budgets.
func (h *HTTP) get(ctx context.Context, u string) ([]byte, error) {
	var lastWait time.Duration
	var retrying *atomic.Int64 // counter to bump when the next attempt starts
	var budgetErr error        // error surfaced when the retry budget runs out
	inLane := false
	defer func() {
		if inLane {
			<-h.lane
		}
	}()
	if len(h.lane) > 0 { // leave the site's next token to the lane
		if err := h.enterLane(ctx); err != nil {
			return nil, err
		}
		<-h.lane
	}
	for attempt := 0; attempt < MaxAttempts; attempt++ {
		if attempt > 0 {
			retrying.Add(1)
			if tr := telemetry.TraceFrom(ctx); tr != nil && retrying == &h.transients {
				tr.AddRetry()
			}
			if err := h.opts.Sleep(ctx, lastWait); err != nil {
				return nil, err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		h.requests.Add(1)
		resp, err := h.opts.Client.Do(req)
		if err != nil {
			// A timed-out request is a blip worth retrying; a cancelled
			// context (or any other transport failure) is not.
			if ctx.Err() == nil && isTimeout(err) {
				retrying, budgetErr = &h.transients, fmt.Errorf("%w: GET %s: %v", ErrTransient, u, err)
				lastWait = transientWait(attempt)
				continue
			}
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return body, nil
		case http.StatusTooManyRequests:
			retrying, budgetErr = &h.retries, fmt.Errorf("%w: %s", ErrRateLimited, u)
			lastWait = retryWait(resp)
			if !inLane {
				if err := h.enterLane(ctx); err != nil {
					return nil, err
				}
				inLane = true
			}
			continue
		case http.StatusInternalServerError, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			retrying, budgetErr = &h.transients, fmt.Errorf("%w: GET %s: status %d: %s",
				ErrTransient, u, resp.StatusCode, strings.TrimSpace(string(body)))
			lastWait = transientWait(attempt)
			continue
		default:
			return nil, fmt.Errorf("formclient: GET %s: status %d: %s",
				u, resp.StatusCode, strings.TrimSpace(string(body)))
		}
	}
	return nil, budgetErr
}

// enterLane blocks until the caller holds the connector's lane.
func (h *HTTP) enterLane(ctx context.Context) error {
	select {
	case h.lane <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// isTimeout reports whether a transport error is a timeout (as opposed to
// a refused connection or a protocol failure).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// transientWait is the exponential backoff for 5xx/timeout retries, capped
// at maxRetryWait; servers in a blip give no Retry-After hint to honor.
func transientWait(attempt int) time.Duration {
	return min(100*time.Millisecond<<attempt, maxRetryWait)
}

// retryWait derives the backoff from the response headers, preferring the
// millisecond-precision hint, capped at maxRetryWait.
func retryWait(resp *http.Response) time.Duration {
	if ms := resp.Header.Get("X-Retry-After-Ms"); ms != "" {
		if v, err := strconv.Atoi(ms); err == nil && v > 0 {
			return min(time.Duration(v)*time.Millisecond, maxRetryWait)
		}
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return min(time.Duration(v)*time.Second, maxRetryWait)
		}
	}
	return min(200*time.Millisecond, maxRetryWait)
}

// Schema implements Conn: on first call it fetches the form page and
// decodes the schema from it (decodeFormPage).
func (h *HTTP) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.schema != nil {
		return h.schema, nil
	}
	body, err := h.get(ctx, h.base+"/")
	if err != nil {
		return nil, err
	}
	if h.schema, err = decodeFormPage(body); err != nil {
		return nil, fmt.Errorf("%w (%s/)", err, h.base)
	}
	return h.schema, nil
}

// decodeFormPage reads a schema off a form page: it locates the search
// form and reconstructs the attribute domains from its select controls,
// inferring kinds from the option labels (false/true pairs become
// boolean, contiguous "lo-hi" range labels numeric with buckets, anything
// else categorical). Every error wraps ErrPageFormat.
func decodeFormPage(body []byte) (*hiddendb.Schema, error) {
	root := htmlx.Parse(string(body))
	form := htmlx.FormByName(root, "search")
	if form == nil {
		return nil, fmt.Errorf("%w: no search form", ErrPageFormat)
	}
	name := "hidden-database"
	if titles := root.ByTag("title"); len(titles) > 0 {
		if t := titles[0].TextContent(); t != "" {
			name = t
		}
	}
	var attrs []hiddendb.Attribute
	for _, sel := range form.Selects {
		if sel.Name == "" {
			continue
		}
		var labels []string
		for i, opt := range sel.Options {
			if opt.Value == "" {
				continue // the "any" wildcard option
			}
			idx, err := strconv.Atoi(opt.Value)
			if err != nil || idx != len(labels) {
				return nil, fmt.Errorf("%w: select %q option %d has non-sequential value %q",
					ErrPageFormat, sel.Name, i, opt.Value)
			}
			labels = append(labels, opt.Label)
		}
		if len(labels) < 2 {
			continue // not a searchable domain
		}
		attrs = append(attrs, inferAttr(sel.Name, labels))
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("%w: search form has no usable selects", ErrPageFormat)
	}
	schema, err := hiddendb.NewSchema(name, attrs...)
	if err != nil {
		return nil, fmt.Errorf("%w: discovered schema invalid: %v", ErrPageFormat, err)
	}
	return schema, nil
}

// inferAttr classifies a discovered domain. Boolean and numeric-range
// shapes are recognized; everything else stays categorical.
func inferAttr(name string, labels []string) hiddendb.Attribute {
	if len(labels) == 2 && labels[0] == "false" && labels[1] == "true" {
		return hiddendb.BoolAttr(name)
	}
	if buckets, ok := parseRangeLabels(labels); ok {
		a := hiddendb.Attribute{Name: name, Kind: hiddendb.KindNumeric,
			Values: append([]string(nil), labels...), Buckets: buckets}
		return a
	}
	return hiddendb.CatAttr(name, labels...)
}

// parseRangeLabels recognizes a contiguous ascending list of "lo-hi"
// labels, returning the bucket ranges.
func parseRangeLabels(labels []string) ([]hiddendb.Bucket, bool) {
	buckets := make([]hiddendb.Bucket, 0, len(labels))
	for _, l := range labels {
		// The dash between the bounds: a bound's own dash is its sign or
		// follows its exponent mark ("-10--5", "1e-05-2e-05").
		dash := 1
		for dash < len(l) && (l[dash] != '-' || l[dash-1] == 'e' || l[dash-1] == 'E') {
			dash++
		}
		if dash >= len(l) {
			return nil, false
		}
		lo, err1 := strconv.ParseFloat(l[:dash], 64)
		hi, err2 := strconv.ParseFloat(l[dash+1:], 64)
		if err1 != nil || err2 != nil || hi <= lo {
			return nil, false
		}
		if len(buckets) > 0 && buckets[len(buckets)-1].Hi != lo {
			return nil, false
		}
		buckets = append(buckets, hiddendb.Bucket{Lo: lo, Hi: hi})
	}
	return buckets, true
}

// EncodeQueryParams renders q as a URL query string ("make=1&cond=0") in
// canonical predicate order, attribute names escaped. It iterates the
// query's predicates in place and renders into one pre-sized builder —
// no url.Values map, no predicate-list copy.
func EncodeQueryParams(schema *hiddendb.Schema, q hiddendb.Query) string {
	if q.Len() == 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(q.Len() * 16)
	for i := 0; i < q.Len(); i++ {
		p := q.Pred(i)
		if i > 0 {
			sb.WriteByte('&')
		}
		sb.WriteString(url.QueryEscape(schema.Attrs[p.Attr].Name))
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(p.Value))
	}
	return sb.String()
}

// Execute implements Conn: it submits the query as form parameters and
// decodes the result page. An overflow answer carries its rows — every
// page of the visible top-k — only when the caller asked for them with
// WantRows; otherwise it costs one request and carries none. A valid
// answer always arrives complete.
func (h *HTTP) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	schema, err := h.Schema(ctx)
	if err != nil {
		return nil, err
	}
	if err := q.ValidateAgainst(schema); err != nil {
		return nil, err
	}
	u := h.base + "/search"
	if enc := EncodeQueryParams(schema, q); enc != "" {
		u += "?" + enc
	}
	body, err := h.get(ctx, u)
	if err != nil {
		return nil, err
	}
	h.queries.Add(1)
	wanted := RowsWanted(ctx)
	res, next, err := decodeResultPage(schema, body, wanted)
	if err != nil {
		return nil, err
	}
	if res.Overflow && !wanted {
		return res, nil
	}
	// Paginated sites split the visible top-k across pages; follow the
	// "next" links to assemble the full answer. Each page fetch is a real
	// request (rate limited like any other), but still one logical query.
	for pages := 0; next != "" && pages < maxResultPages; pages++ {
		body, err := h.get(ctx, h.base+next)
		if err != nil {
			return nil, err
		}
		more, n, err := decodeResultPage(schema, body, true)
		if err != nil {
			return nil, err
		}
		//hdlint:ignore resultimmut res is page one's freshly decoded Result (built by decodeResultPage), not shared storage
		res.Tuples = append(res.Tuples, more.Tuples...)
		next = n
	}
	return res, nil
}

// maxResultPages bounds pagination loops against misbehaving sites.
const maxResultPages = 1000

// Stats implements Conn.
func (h *HTTP) Stats() Stats {
	return Stats{
		Queries:          h.queries.Load(),
		HTTPRequests:     h.requests.Load(),
		RateLimitRetries: h.retries.Load(),
		TransientRetries: h.transients.Load(),
	}
}

var _ Conn = (*HTTP)(nil)
