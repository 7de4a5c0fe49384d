package telemetry

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestTracerSamplingDeterminism: equal seed and rate must replay the
// exact trace/skip sequence, and different seeds should disagree
// somewhere.
func TestTracerSamplingDeterminism(t *testing.T) {
	draw := func(seed uint64) []bool {
		tr := NewTracer(TracerOptions{Rate: 0.25, Seed: seed, Capacity: 4})
		out := make([]bool, 400)
		for i := range out {
			w := tr.Start("walk", "", "")
			out[i] = w != nil
			w.Finish()
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical decision streams")
	}
	// The sampled fraction should be in the right ballpark.
	n := 0
	for _, s := range a {
		if s {
			n++
		}
	}
	if n < 50 || n > 150 {
		t.Fatalf("sampled %d/400 at rate 0.25", n)
	}
}

func TestTracerRateExtremes(t *testing.T) {
	off := NewTracer(TracerOptions{Rate: 0, Seed: 1})
	for i := 0; i < 100; i++ {
		if off.Start("walk", "", "") != nil {
			t.Fatal("rate-0 tracer sampled a walk")
		}
	}
	var nilT *Tracer
	if nilT.Start("walk", "", "") != nil {
		t.Fatal("nil tracer sampled a walk")
	}
	if nilT.Dump() != nil || nilT.Stats() != (TracerStats{}) {
		t.Fatal("nil tracer not inert")
	}
	always := NewTracer(TracerOptions{Rate: 1, Seed: 1})
	for i := 0; i < 100; i++ {
		w := always.Start("walk", "", "")
		if w == nil {
			t.Fatal("rate-1 tracer skipped a walk")
		}
		w.Finish()
	}
}

// TestTracerRingWraparound fills the ring far past capacity and checks
// the ring holds exactly the newest traces, oldest first, with eviction
// accounting and pooled reuse intact. Run under -race with concurrent
// writers in TestTracerConcurrent below.
func TestTracerRingWraparound(t *testing.T) {
	const cap = 8
	tr := NewTracer(TracerOptions{Rate: 1, Seed: 1, Capacity: cap})
	for i := 0; i < 30; i++ {
		w := tr.Start("walk", "", "")
		w.Queries = i // tag so views are distinguishable
		w.Finish()
	}
	views := tr.Dump()
	if len(views) != cap {
		t.Fatalf("ring holds %d, want %d", len(views), cap)
	}
	for i, v := range views {
		if want := 30 - cap + i; v.Queries != want {
			t.Fatalf("ring[%d].Queries = %d, want %d (oldest-first order)", i, v.Queries, want)
		}
	}
	st := tr.Stats()
	if st.Started != 30 || st.Finished != 30 || st.Evicted != 30-cap || st.Buffered != cap {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(TracerOptions{Rate: 1, Seed: 3, Capacity: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := tr.Start("walk", "j", "h")
				w.BeginLevel(0, 0, 1, 2)
				w.MarkCache(CacheHit, time.Microsecond)
				w.EndLevel(LevelValid, time.Millisecond)
				w.Finish()
			}
		}()
	}
	done := make(chan struct{})
	go func() { // concurrent readers while writers run
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Dump()
			tr.Stats()
		}
	}()
	wg.Wait()
	<-done
	if st := tr.Stats(); st.Finished != 1600 {
		t.Fatalf("finished = %d, want 1600", st.Finished)
	}
}

func TestWalkTraceLevels(t *testing.T) {
	tr := NewTracer(TracerOptions{Rate: 1, Seed: 1, Capacity: 2})
	w := tr.Start("walk", "j-1", "example.com")
	w.BeginLevel(0, 0, 2, 7)
	w.MarkCache(CacheMiss, 200*time.Nanosecond)
	w.MarkExec(ExecWire)
	w.SetAIMDLimit(6.5)
	w.AddRetry()
	w.EndLevel(LevelOverflow, 3*time.Millisecond)
	w.BeginLevel(0, 1, 3, 1)
	w.MarkCache(CacheInferSibling, 0)
	w.EndLevel(LevelValid, time.Microsecond)
	// Marks outside an open level are dropped, not misfiled.
	w.MarkExec(ExecCoalesced)
	w.Decide(true)

	views := tr.Dump()
	if len(views) != 1 {
		t.Fatalf("dump = %d traces", len(views))
	}
	v := views[0]
	if !v.Decided || !v.Accepted || v.Job != "j-1" || v.Host != "example.com" {
		t.Fatalf("trace header: %+v", v)
	}
	if len(v.Levels) != 2 {
		t.Fatalf("levels = %d", len(v.Levels))
	}
	l0 := v.Levels[0]
	if l0.Outcome != "overflow" || l0.Cache != "miss" || l0.Exec != "wire" ||
		l0.Retries != 1 || l0.AIMDLimit != 6.5 || l0.Attr != 2 || l0.Value != 7 {
		t.Fatalf("level 0: %+v", l0)
	}
	l1 := v.Levels[1]
	if l1.Outcome != "valid" || l1.Cache != "infer-sibling" || l1.Exec != "" {
		t.Fatalf("level 1: %+v", l1)
	}
}

func TestWalkTraceLevelCap(t *testing.T) {
	tr := NewTracer(TracerOptions{Rate: 1, Seed: 1, Capacity: 2})
	w := tr.Start("walk", "", "")
	for i := 0; i < maxTraceLevels+10; i++ {
		w.BeginLevel(0, i, 0, 0)
		w.EndLevel(LevelValid, 0)
	}
	w.Finish()
	v := tr.Dump()[0]
	if len(v.Levels) != maxTraceLevels || v.Truncated != 10 {
		t.Fatalf("levels = %d, truncated = %d", len(v.Levels), v.Truncated)
	}
}

func TestWithTraceRoundTrip(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("trace in empty context")
	}
	w := &WalkTrace{}
	ctx := WithTrace(context.Background(), w)
	if TraceFrom(ctx) != w {
		t.Fatal("trace did not round-trip")
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr := NewTracer(TracerOptions{Rate: 1, Seed: 1, Capacity: 4})
	w := tr.Start("walk", "", "")
	w.Finish()
	w.Finish() // second finish must not double-store
	if st := tr.Stats(); st.Finished != 1 || st.Buffered != 1 {
		t.Fatalf("stats after double finish: %+v", st)
	}
	var nilW *WalkTrace
	nilW.Finish()
	nilW.Decide(true)
	nilW.BeginLevel(0, 0, 0, 0)
	nilW.EndLevel(LevelValid, 0)
	nilW.MarkCache(CacheHit, 0)
	nilW.MarkExec(ExecWire)
	nilW.AddRetry()
	nilW.SetAIMDLimit(1)
}

func TestOutcomeStrings(t *testing.T) {
	if CacheNone.String() != "none" || CacheInferEmpty.String() != "infer-empty" ||
		ExecCoalesced.String() != "coalesced" || LevelEmpty.String() != "empty" ||
		LevelUnknown.String() != "unknown" {
		t.Fatal("outcome strings drifted")
	}
}
