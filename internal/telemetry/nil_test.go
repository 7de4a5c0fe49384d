package telemetry

import (
	"reflect"
	"testing"
)

// TestNilReceiversAreNoOps checks the instruments' contract: a nil
// pointer accepts every exported method, called with zero-valued
// arguments, without panicking — so instrumented code never branches on
// whether telemetry is configured. Methods are found by reflection, so
// one added later is covered without touching this test.
func TestNilReceiversAreNoOps(t *testing.T) {
	for _, nilPtr := range []any{
		(*Counter)(nil), (*CounterVec)(nil), (*Histogram)(nil), (*HistogramVec)(nil),
		(*Tracer)(nil), (*WalkTrace)(nil), (*WalkObserver)(nil),
	} {
		v := reflect.ValueOf(nilPtr)
		if v.NumMethod() == 0 {
			t.Errorf("%s has no exported methods", v.Type())
		}
		for i := 0; i < v.NumMethod(); i++ {
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s.%s on a nil receiver panicked: %v", v.Type(), v.Type().Method(i).Name, r)
					}
				}()
				if m.Type().IsVariadic() {
					m.CallSlice(args)
				} else {
					m.Call(args)
				}
			}()
		}
	}
}
