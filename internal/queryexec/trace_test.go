package queryexec

import (
	"context"
	"sync"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
)

// tracedCtx starts a sampled walk trace with one open level and returns
// it together with a context carrying it, the way the walker hands a
// traced query down the stack.
func tracedCtx(ctx context.Context, tracer *telemetry.Tracer, job string) (context.Context, *telemetry.WalkTrace) {
	w := tracer.Start("walk", job, "")
	w.BeginLevel(0, 0, datagen.VehAttrMake, 1)
	return telemetry.WithTrace(ctx, w), w
}

// levelOf closes w's level, finishes the trace and returns that level as
// /debug/walks renders it.
func levelOf(t *testing.T, tracer *telemetry.Tracer, w *telemetry.WalkTrace) telemetry.LevelView {
	t.Helper()
	job := w.Job
	w.EndLevel(telemetry.LevelValid, 0)
	w.Finish()
	for _, v := range tracer.Dump() {
		if v.Job == job && len(v.Levels) == 1 {
			return v.Levels[0]
		}
	}
	t.Fatalf("trace %q missing from the dump", job)
	return telemetry.LevelView{}
}

// TestTraceMarksWireAndRetry: a traced leader records its own wire call,
// the limiter's window at send time and the transient retry it spent.
func TestTraceMarksWireAndRetry(t *testing.T) {
	db := testDB(t, 300)
	lim := NewLimiter(LimiterOptions{MaxInFlight: 6})
	x := New(newBlippy(db, 1), Options{Limiter: lim, TransientRetries: 2, Sleep: noSleep})
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Rate: 1, Seed: 1, Capacity: 4})
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1})

	ctx, w := tracedCtx(context.Background(), tracer, "leader")
	if _, err := x.Execute(ctx, q); err != nil {
		t.Fatal(err)
	}
	lv := levelOf(t, tracer, w)
	if lv.Exec != "wire" || lv.AIMDLimit != 6 || lv.Retries != 1 {
		t.Fatalf("leader level = %+v, want exec=wire, aimd_limit=6, retries=1", lv)
	}
}

// gateConn holds every Execute until release closes, announcing each
// arrival on entered.
type gateConn struct {
	*formclient.Local
	entered chan struct{}
	release chan struct{}
}

func (g *gateConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.Local.Execute(ctx, q)
}

// waitHookCtx closes waiting the first time Done is read. A follower
// reads Done only once it has found the leader's flight and blocks on it,
// so waiting closing means the follower is parked on that flight.
type waitHookCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitHookCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestTraceMarksCoalescedFollower: a follower that joins an in-flight
// leader records exec=coalesced on its own trace, while the leader's
// trace keeps exec=wire.
func TestTraceMarksCoalescedFollower(t *testing.T) {
	db := testDB(t, 300)
	inner := &gateConn{Local: formclient.NewLocal(db), entered: make(chan struct{}, 1), release: make(chan struct{})}
	x := New(inner, Options{})
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Rate: 1, Seed: 1, Capacity: 4})
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1})

	lctx, lw := tracedCtx(context.Background(), tracer, "leader")
	hook := &waitHookCtx{Context: context.Background(), waiting: make(chan struct{})}
	fctx, fw := tracedCtx(hook, tracer, "follower")
	errs := make(chan error, 2)
	go func() {
		_, err := x.Execute(lctx, q)
		errs <- err
	}()
	<-inner.entered // the leader is on the wire; its flight is registered
	go func() {
		_, err := x.Execute(fctx, q)
		errs <- err
	}()
	<-hook.waiting // the follower is parked on the leader's flight
	close(inner.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	if lv := levelOf(t, tracer, lw); lv.Exec != "wire" {
		t.Fatalf("leader level = %+v, want exec=wire", lv)
	}
	if fv := levelOf(t, tracer, fw); fv.Exec != "coalesced" || fv.Retries != 0 || fv.AIMDLimit != 0 {
		t.Fatalf("follower level = %+v, want exec=coalesced and no wire marks", fv)
	}
	if st := x.ExecStats(); st.Coalesced != 1 || st.WireCalls != 1 {
		t.Fatalf("stats = %+v, want one wire call and one coalesced follower", st)
	}
}
