package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer names a span's layer; the traced run records one span per call
// into a layer's public entry point.
type layer uint8

const (
	layerDraw  layer = iota // core: one Draw call
	layerCache              // history: Cache.Execute
	layerConn               // formclient: Conn.Execute
	numLayers
)

// span is one timed call. Times are nanoseconds since the recorder's
// epoch; parent is 0 for a root span.
type span struct {
	id, parent int64
	layer      layer
	start, end int64
}

// recorder keeps spans in memory for the traced run. Spans of one call
// chain are linked through the context handed down each layer.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanKey struct{}

// begin opens a span under the span carried by ctx and returns the context
// to pass to the layer below plus the function that closes the span.
func (r *recorder) begin(ctx context.Context, l layer) (context.Context, func()) {
	parent, _ := ctx.Value(spanKey{}).(int64)
	id := r.next.Add(1)
	start := time.Since(r.epoch).Nanoseconds()
	return context.WithValue(ctx, spanKey{}, id), func() {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans = append(r.spans, span{id: id, parent: parent, layer: l, start: start, end: end})
		r.mu.Unlock()
	}
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTimes is per-layer call count, total time and self time.
type layerTimes struct {
	Calls       [numLayers]int64
	Total, Self [numLayers]time.Duration
}

// selfTimes sums each layer's span durations and self times. A span's
// self time is its duration minus the part of its interval covered by
// the union of its children, so concurrent children are not subtracted
// twice and children that outlive their parent are clipped to it.
func selfTimes(spans []span) layerTimes {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var lt layerTimes
	for _, s := range spans {
		d := s.end - s.start
		covered := unionWithin(children[s.id], s.start, s.end)
		lt.Calls[s.layer]++
		lt.Total[s.layer] += time.Duration(d)
		lt.Self[s.layer] += time.Duration(d - covered)
	}
	return lt
}

// unionWithin is the length of the union of the spans' intervals clipped
// to [lo, hi].
func unionWithin(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}
