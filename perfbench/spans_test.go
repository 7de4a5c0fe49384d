package main

import (
	"context"
	"testing"
	"time"
)

func TestSelfTimesNested(t *testing.T) {
	// draw [0,100) ⊃ cache [10,60) ⊃ conn [20,50).
	spans := []span{
		{id: 1, layer: layerDraw, start: 0, end: 100},
		{id: 2, parent: 1, layer: layerCache, start: 10, end: 60},
		{id: 3, parent: 2, layer: layerConn, start: 20, end: 50},
	}
	lt := selfTimes(spans)
	want := map[layer]time.Duration{layerDraw: 50, layerCache: 20, layerConn: 30}
	for l, w := range want {
		if lt.Self[l] != w {
			t.Errorf("layer %d self = %d, want %d", l, lt.Self[l], w)
		}
	}
	var sum time.Duration
	for l := layer(0); l < numLayers; l++ {
		sum += lt.Self[l]
	}
	if sum != 100 {
		t.Errorf("nested self times sum to %d, want the root's 100", sum)
	}
}

func TestSelfTimesSequentialChildren(t *testing.T) {
	// Three sequential lookups under one draw, one with a wire call.
	spans := []span{
		{id: 1, layer: layerDraw, start: 0, end: 100},
		{id: 2, parent: 1, layer: layerCache, start: 10, end: 20},
		{id: 3, parent: 1, layer: layerCache, start: 30, end: 70},
		{id: 4, parent: 3, layer: layerConn, start: 35, end: 65},
		{id: 5, parent: 1, layer: layerCache, start: 80, end: 85},
	}
	lt := selfTimes(spans)
	if lt.Self[layerDraw] != 45 {
		t.Errorf("draw self = %d, want 45", lt.Self[layerDraw])
	}
	if lt.Self[layerCache] != 25 || lt.Total[layerCache] != 55 || lt.Calls[layerCache] != 3 {
		t.Errorf("cache self/total/calls = %d/%d/%d, want 25/55/3",
			lt.Self[layerCache], lt.Total[layerCache], lt.Calls[layerCache])
	}
}

func TestSelfTimesOverlappingAndClippedChildren(t *testing.T) {
	// Two lookups overlap under one draw; one outlives it.
	spans := []span{
		{id: 1, layer: layerDraw, start: 0, end: 100},
		{id: 2, parent: 1, layer: layerCache, start: 10, end: 50},
		{id: 3, parent: 1, layer: layerCache, start: 30, end: 70},
		{id: 4, parent: 1, layer: layerCache, start: 90, end: 120},
	}
	lt := selfTimes(spans)
	// Covered: [10,70) ∪ [90,100) = 70.
	if lt.Self[layerDraw] != 30 {
		t.Errorf("draw self = %d, want 30", lt.Self[layerDraw])
	}
}

func TestUnionWithin(t *testing.T) {
	s := func(a, b int64) span { return span{start: a, end: b} }
	cases := []struct {
		spans  []span
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[]span{s(0, 10)}, 0, 10, 10},
		{[]span{s(5, 8), s(1, 3)}, 0, 10, 5},
		{[]span{s(1, 5), s(2, 3), s(4, 9)}, 0, 10, 8},
		{[]span{s(-5, 3), s(8, 20)}, 0, 10, 5},
		{[]span{s(20, 30)}, 0, 10, 0},
	}
	for i, c := range cases {
		if got := unionWithin(c.spans, c.lo, c.hi); got != c.want {
			t.Errorf("case %d: union = %d, want %d", i, got, c.want)
		}
	}
}

func TestRecorderLinksParentsThroughContext(t *testing.T) {
	r := newRecorder()
	ctx, endDraw := r.begin(context.Background(), layerDraw)
	for i := 0; i < 2; i++ {
		cctx, endCache := r.begin(ctx, layerCache)
		_, endConn := r.begin(cctx, layerConn)
		endConn()
		endCache()
	}
	endDraw()
	spans := r.snapshot()
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(spans))
	}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.id] = s
	}
	for _, s := range spans {
		switch s.layer {
		case layerDraw:
			if s.parent != 0 {
				t.Errorf("draw span has parent %d", s.parent)
			}
		case layerCache:
			if byID[s.parent].layer != layerDraw {
				t.Errorf("cache span's parent is layer %d", byID[s.parent].layer)
			}
		case layerConn:
			if byID[s.parent].layer != layerCache {
				t.Errorf("conn span's parent is layer %d", byID[s.parent].layer)
			}
		}
	}
	lt := selfTimes(spans)
	if lt.Total[layerDraw] < lt.Total[layerCache] || lt.Total[layerCache] < lt.Total[layerConn] {
		t.Errorf("totals not nested: %v", lt.Total)
	}
}
