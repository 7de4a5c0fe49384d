package hdsampler

import (
	"context"
	"fmt"
	"testing"

	"hdsampler/internal/core"
	"hdsampler/internal/faultform"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// TestStackConfigurationsAgree pins that the query stack is transparent to
// the sample sequence. For a fixed seed, a bare core.Walker + core.Rejector
// over formclient.Local, and New and DrawParallel with one worker under
// every stack configuration, accept the same tuples in the same order:
// history answers, coalescing, admission control and absorbed transient
// faults change which queries reach the interface, never what the walk
// sees.
func TestStackConfigurationsAgree(t *testing.T) {
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
	for _, mode := range []hiddendb.CountMode{hiddendb.CountNone, hiddendb.CountExact} {
		t.Run(fmt.Sprint("counts=", mode), func(t *testing.T) {
			db, _ := localVehicles(t, 2000, 100, mode)
			ctx := context.Background()
			c := core.SliderC(db.Schema(), nil, db.K(), 0.6)
			gen, err := core.NewWalker(ctx, formclient.NewLocal(db), core.WalkerConfig{Seed: seed, Order: core.OrderShuffle})
			if err != nil {
				t.Fatal(err)
			}
			want, ref, err := core.Collect(ctx, gen, core.NewRejector(c, seed+1), n)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Rejected == 0 {
				t.Fatalf("C = %g: the reference rejected nothing", c)
			}

			for _, tc := range configs {
				cfg := tc.cfg
				cfg.Seed, cfg.C, cfg.ShuffleOrder = seed, c, true
				var faulty []*faultform.Conn
				conn := func() Conn {
					if !tc.flaky {
						return formclient.NewLocal(db)
					}
					fc := faultform.Wrap(formclient.NewLocal(db), flaky, seed)
					faulty = append(faulty, fc)
					return fc
				}
				check := func(path string, got []Tuple, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s/%s: %v", tc.name, path, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s/%s: drew %d samples, want %d", tc.name, path, len(got), len(want))
					}
					for i := range want {
						if got[i].ID != want[i].ID {
							t.Fatalf("%s/%s: sample %d is tuple %d, want %d", tc.name, path, i, got[i].ID, want[i].ID)
						}
					}
				}
				s, err := New(ctx, conn(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := s.Draw(ctx, n)
				check("New", got, err)
				got, _, err = DrawParallel(ctx, conn(), cfg, n, 1)
				check("DrawParallel", got, err)
				for _, fc := range faulty {
					if fc.FaultStats().Transients == 0 {
						t.Errorf("%s: no transient fault was injected", tc.name)
					}
				}
			}
		})
	}
}
