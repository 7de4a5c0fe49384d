package hdsampler

import (
	"context"
	"fmt"
	"testing"

	"hdsampler/internal/core"
	"hdsampler/internal/datagen"
	"hdsampler/internal/faultform"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
	"hdsampler/internal/queryexec"
)

// TestStackConfigurationsAgree pins that the query stack is transparent to
// the sample sequence. For a fixed seed, a bare core.Walker + core.Rejector
// over formclient.Local, and New and DrawParallel with one worker under
// every stack configuration, accept the same tuples in the same order:
// history answers, coalescing, admission control and absorbed transient
// faults change which queries reach the interface, never what the walk
// sees. So does a history cache capped so small that most stores evict,
// drawn by a one-replica ReplicaSet over NewStack as jobsvc draws. The
// attribute-scoped leg walks two attributes only, so most walks end on an
// overflowing last level and pick among that answer's rows — rows the
// history cache must keep because the walk asked for them, and fetch again
// once they are evicted.
func TestStackConfigurationsAgree(t *testing.T) {
	for _, mode := range []hiddendb.CountMode{hiddendb.CountNone, hiddendb.CountExact} {
		t.Run(fmt.Sprint("counts=", mode), func(t *testing.T) {
			stackConfigurationsAgree(t, mode, nil)
		})
		t.Run(fmt.Sprint("counts=", mode, ",scoped"), func(t *testing.T) {
			stackConfigurationsAgree(t, mode, []int{datagen.VehAttrCondition, datagen.VehAttrTransmission})
		})
	}
}

func stackConfigurationsAgree(t *testing.T, mode hiddendb.CountMode, attrs []int) {
	const n, seed = 40, 17
	flaky, ok := faultform.Preset("flaky")
	if !ok {
		t.Fatal("no flaky fault preset")
	}
	configs := []struct {
		name  string
		cfg   Config
		flaky bool
	}{
		{"no-history", Config{}, false},
		{"history", Config{UseHistory: true}, false},
		{"history+trust", Config{UseHistory: true, TrustCounts: true}, false},
		{"max-in-flight", Config{Exec: ExecConfig{MaxInFlight: 4}}, false},
		{"flaky+retries", Config{Exec: ExecConfig{TransientRetries: 5}}, true},
	}
	db, _ := localVehicles(t, 2000, 100, mode)
	ctx := context.Background()
	c := core.SliderC(db.Schema(), attrs, db.K(), 0.6)
	probe := &lastLevelProbe{Conn: formclient.NewLocal(db), depth: len(attrs)}
	gen, err := core.NewWalker(ctx, probe, core.WalkerConfig{Seed: seed, Order: core.OrderShuffle, Attrs: attrs})
	if err != nil {
		t.Fatal(err)
	}
	want, ref, err := core.Collect(ctx, gen, core.NewRejector(c, seed+1), n)
	if err != nil {
		t.Fatal(err)
	}
	if attrs == nil {
		if ref.Rejected == 0 {
			t.Fatalf("C = %g: the reference rejected nothing", c)
		}
	} else if probe.answers != ref.Candidates || 2*probe.overflows <= probe.answers {
		// Four of the six scoped cells overflow: every walk ends at the
		// last level, and most candidates are picked from an overflowing
		// answer's rows.
		t.Fatalf("scoped reference: %d candidates, %d last-level answers of which %d overflowed; "+
			"want a candidate per answer, mostly overflowing", ref.Candidates, probe.answers, probe.overflows)
	}

	check := func(path string, got []Tuple, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: drew %d samples, want %d", path, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("%s: sample %d is tuple %d, want %d", path, i, got[i].ID, want[i].ID)
			}
		}
	}
	for _, tc := range configs {
		cfg := tc.cfg
		cfg.Seed, cfg.C, cfg.ShuffleOrder, cfg.Attrs = seed, c, true, attrs
		var faulty []*faultform.Conn
		conn := func() Conn {
			if !tc.flaky {
				return formclient.NewLocal(db)
			}
			fc := faultform.Wrap(formclient.NewLocal(db), flaky, seed)
			faulty = append(faulty, fc)
			return fc
		}
		s, err := New(ctx, conn(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Draw(ctx, n)
		check(tc.name+"/New", got, err)
		got, _, err = DrawParallel(ctx, conn(), cfg, n, 1)
		check(tc.name+"/DrawParallel", got, err)
		for _, fc := range faulty {
			if fc.FaultStats().Transients == 0 {
				t.Errorf("%s: no transient fault was injected", tc.name)
			}
		}
	}

	st := NewStack(formclient.NewLocal(db), queryexec.Options{}, &history.Options{MaxBytes: 4 << 10})
	rs, err := NewReplicaSet(ctx, st.Conn(), Config{Seed: seed, C: c, ShuffleOrder: true, Attrs: attrs}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rs.Draw(ctx, n)
	check("capped-history/ReplicaSet", got, err)
	if cs := st.Cache().CacheStats(); 2*cs.Evictions <= cs.Issued+cs.Inferred {
		t.Fatalf("capped cache evicted %d times in %d stores, want most stores to evict", cs.Evictions, cs.Issued+cs.Inferred)
	}
}

// lastLevelProbe counts the answers to queries with depth predicates and
// how many of them overflowed.
type lastLevelProbe struct {
	Conn
	depth              int
	answers, overflows int64
}

func (p *lastLevelProbe) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	res, err := p.Conn.Execute(ctx, q)
	if err == nil && q.Len() == p.depth {
		p.answers++
		if res.Overflow {
			p.overflows++
		}
	}
	return res, err
}

// TestScopedWalkSameWithHistory is the smallest scoped walk whose cells all
// overflow: six rows over two booleans, k = 2, walking attribute 0 only.
// Each walk picks among an overflowing answer's two visible rows, so the
// history cache must hand those rows back on every revisit; with history
// the draw must match the draw without it, sample for sample.
func TestScopedWalkSameWithHistory(t *testing.T) {
	schema := hiddendb.MustSchema("probe", hiddendb.BoolAttr("a"), hiddendb.BoolAttr("b"))
	var tuples []hiddendb.Tuple
	for _, v := range [][]int{{0, 0}, {0, 1}, {0, 1}, {1, 0}, {1, 1}, {1, 1}} {
		tuples = append(tuples, hiddendb.Tuple{Vals: v})
	}
	db, err := hiddendb.New(schema, tuples, nil, hiddendb.Config{K: 2, CountMode: hiddendb.CountExact})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, method := range []Method{MethodRandomWalk, MethodCountWeighted} {
		var draws [2][]Tuple
		for i, history := range []bool{false, true} {
			s, err := New(ctx, LocalConn(db), Config{Seed: 3, Method: method, K: 2, Attrs: []int{0}, UseHistory: history})
			if err != nil {
				t.Fatal(err)
			}
			if draws[i], _, err = s.Draw(ctx, 300); err != nil {
				t.Fatalf("%v, history %v: %v", method, history, err)
			}
		}
		for i := range draws[0] {
			if draws[1][i].ID != draws[0][i].ID {
				t.Fatalf("%v: sample %d is tuple %d with history, %d without", method, i, draws[1][i].ID, draws[0][i].ID)
			}
		}
	}
}
