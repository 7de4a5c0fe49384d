package queryexec

import (
	"context"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
)

// TestTraceMarksWireAndRetry: a traced query records its wire call. Its
// retries are marked where they happen, in the connector (formclient's
// TestTracedQueryCountsRetries).
func TestTraceMarksWireAndRetry(t *testing.T) {
	db := testDB(t, 300)
	lim := NewLimiter(LimiterOptions{MaxInFlight: 6})
	x := New(formclient.NewLocal(db), Options{Limiter: lim})
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Rate: 1, Seed: 1, Capacity: 4})
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1})

	// One open level, the way the walker hands a traced query down the
	// stack.
	w := tracer.Start("walk", "job", "")
	w.BeginLevel(0, 0, datagen.VehAttrMake, 1)
	if _, err := x.Execute(telemetry.WithTrace(context.Background(), w), q); err != nil {
		t.Fatal(err)
	}
	w.EndLevel(telemetry.LevelValid, 0)
	w.Finish()
	views := tracer.Dump()
	if len(views) != 1 || len(views[0].Levels) != 1 {
		t.Fatalf("dump = %+v, want one trace of one level", views)
	}
	if lv := views[0].Levels[0]; lv.Exec != "wire" {
		t.Fatalf("level = %+v, want exec=wire", lv)
	}
}
