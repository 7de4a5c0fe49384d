package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one exposition label pair.
type Label struct {
	Name, Value string
}

// Emit is the callback a scrape-time collector uses to publish one
// sample of its family.
type Emit func(value float64, labels ...Label)

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4): stable family and series ordering,
// escaped HELP text and label values, and the proper content type on the
// HTTP handler. Families register once at construction time; values are
// read at scrape time, so both live instruments (Counter, Histogram) and
// scrape-time collectors (CollectGauge over existing stats structs) fit.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help, typ string
	collect         func(emit Emit)     // counter and gauge families
	hist            func() []histSeries // histogram families
}

type histSeries struct {
	labels []Label
	snap   HistogramSnapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", f.name))
	}
	r.families[f.name] = f
}

// Counter registers and returns a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", collect: func(emit Emit) {
		emit(float64(c.Value()))
	}})
	return c
}

// CounterVec registers a counter family partitioned by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, counters: make(map[string]*Counter)}
	r.register(&family{name: name, help: help, typ: "counter", collect: v.collect})
	return v
}

// CounterFunc registers a label-less counter whose value is computed at
// scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", collect: func(emit Emit) {
		emit(fn())
	}})
}

// GaugeFunc registers a label-less gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", collect: func(emit Emit) {
		emit(fn())
	}})
}

// CollectCounter registers a counter family whose samples (any number,
// any labels) are produced by fn at scrape time.
func (r *Registry) CollectCounter(name, help string, fn func(emit Emit)) {
	r.register(&family{name: name, help: help, typ: "counter", collect: fn})
}

// CollectGauge registers a gauge family produced by fn at scrape time.
func (r *Registry) CollectGauge(name, help string, fn func(emit Emit)) {
	r.register(&family{name: name, help: help, typ: "gauge", collect: fn})
}

// Histogram registers and returns a label-less latency histogram,
// exposed with log₂-spaced le bounds in seconds.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(&family{name: name, help: help, typ: "histogram", hist: func() []histSeries {
		return []histSeries{{snap: h.Snapshot()}}
	}})
	return h
}

// HistogramVec registers a histogram family partitioned by one label
// (per-host, per-job). Series appear in the exposition as label values
// materialize.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	v := NewHistogramVec(label)
	r.register(&family{name: name, help: help, typ: "histogram", hist: v.snapshot})
	return v
}

// CounterVec is a counter family partitioned by one label. Hot paths
// call With once and keep the returned *Counter. A nil *CounterVec
// yields nil (inert) counters.
type CounterVec struct {
	label string

	mu       sync.Mutex
	counters map[string]*Counter
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.counters[value]
	if c == nil {
		c = &Counter{}
		v.counters[value] = c
	}
	return c
}

func (v *CounterVec) collect(emit Emit) {
	v.mu.Lock()
	values := make([]string, 0, len(v.counters))
	for val := range v.counters {
		values = append(values, val)
	}
	counters := make([]*Counter, len(values))
	for i, val := range values {
		counters[i] = v.counters[val]
	}
	v.mu.Unlock()
	for i, val := range values {
		emit(float64(counters[i].Value()), Label{v.label, val})
	}
}

// sample is one rendered series of a counter/gauge family.
type sample struct {
	labels []Label
	value  float64
}

// WriteText renders every registered family in the Prometheus text
// format, families sorted by name and series by label values.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	families := make([]*family, len(names))
	sort.Strings(names)
	for i, name := range names {
		families[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range families {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		if f.hist != nil {
			writeHistogram(&b, f)
		} else {
			writeSamples(&b, f)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeSamples(b *strings.Builder, f *family) {
	var samples []sample
	f.collect(func(value float64, labels ...Label) {
		samples = append(samples, sample{labels: labels, value: value})
	})
	sort.SliceStable(samples, func(i, j int) bool {
		return labelKey(samples[i].labels) < labelKey(samples[j].labels)
	})
	for _, s := range samples {
		b.WriteString(f.name)
		writeLabels(b, s.labels)
		b.WriteByte(' ')
		b.WriteString(formatValue(s.value))
		b.WriteByte('\n')
	}
}

func writeHistogram(b *strings.Builder, f *family) {
	for _, s := range f.hist() {
		lbls := make([]Label, len(s.labels)+1)
		copy(lbls, s.labels)
		var cum int64
		for i, n := range s.snap.Buckets {
			cum += n
			lbls[len(lbls)-1] = Label{"le", formatLe(bucketBound(i) / 1e9)}
			b.WriteString(f.name)
			b.WriteString("_bucket")
			writeLabels(b, lbls)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(cum, 10))
			b.WriteByte('\n')
		}
		b.WriteString(f.name)
		b.WriteString("_sum")
		writeLabels(b, s.labels)
		b.WriteByte(' ')
		b.WriteString(formatValue(s.snap.Sum.Seconds()))
		b.WriteByte('\n')
		b.WriteString(f.name)
		b.WriteString("_count")
		writeLabels(b, s.labels)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(s.snap.Count, 10))
		b.WriteByte('\n')
	}
}

// labelKey orders series within a family.
func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xff')
	}
	return b.String()
}

func writeLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline (quotes are legal
// there).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value, preferring exact integer notation
// (the form the existing metric consumers and tests expect) over
// scientific notation for whole numbers.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLe renders a bucket bound; +Inf spells exactly that.
func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as a Prometheus scrape endpoint with the
// exposition-format content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
