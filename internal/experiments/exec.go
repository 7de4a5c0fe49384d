package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"hdsampler/internal/core"
	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/queryexec"
	"hdsampler/internal/webform"
)

// ExecLayer measures the query-execution layer's wire economics: the same
// 8-replica draw run direct and with single-flight coalescing. The
// interface round trip is HDSampler's bottleneck (every drill-down
// level is one HTTP query against a rate-limited site), so the headline
// number is wire requests per logical query — the fraction of the
// politeness budget each configuration burns for the same sample.
func ExecLayer(ctx context.Context, sc Scale) (*Table, error) {
	n := sc.pick(3000, 20000)
	perWorker := sc.pick(12, 60)
	const workers = 8

	ds := datagen.Vehicles(n, 151)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 500})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(webform.NewServer(db, webform.Options{}))
	defer srv.Close()

	t := &Table{
		ID:      "exec",
		Title:   "query-execution layer: coalescing wire savings (8 replicas)",
		Header:  []string{"configuration", "samples", "logical queries", "wire requests", "wire/query", "coalesced", "wall(ms)"},
		Metrics: map[string]float64{},
	}
	for _, cfg := range []struct {
		name  string
		layer bool
	}{
		{"direct (baseline)", false},
		{"+ coalesce", true},
	} {
		api := formclient.NewAPI(srv.URL, formclient.HTTPOptions{Client: srv.Client()})
		var conn formclient.Conn = api
		var exec *queryexec.Executor
		if cfg.layer {
			exec = queryexec.New(api, queryexec.Options{})
			conn = exec
		}
		if _, err := conn.Schema(ctx); err != nil {
			return nil, err
		}
		req0 := api.Stats().HTTPRequests

		start := time.Now()
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		var samples int
		var logical int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				gen, err := core.NewWalker(ctx, conn, core.WalkerConfig{
					Seed: 152 + int64(w)*7919, Order: core.OrderShuffle,
				})
				if err == nil {
					var tuples []hiddendb.Tuple
					tuples, _, err = core.Collect(ctx, gen, nil, perWorker)
					mu.Lock()
					samples += len(tuples)
					logical += gen.GenStats().Queries
					mu.Unlock()
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, firstErr)
		}
		wall := time.Since(start)
		wire := api.Stats().HTTPRequests - req0
		perQuery := float64(wire) / float64(logical)
		var coalesced int64
		if exec != nil {
			coalesced = exec.ExecStats().Coalesced
		}
		t.Rows = append(t.Rows, []string{
			cfg.name,
			fmt.Sprintf("%d", samples),
			fmt.Sprintf("%d", logical),
			fmt.Sprintf("%d", wire),
			fmtF(perQuery),
			fmt.Sprintf("%d", coalesced),
			fmt.Sprintf("%d", wall.Milliseconds()),
		})
		t.Metrics["wire/query:"+cfg.name] = perQuery
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("vehicles n=%d behind the web form API, k=500, %d replicas × %d raw-walk samples, no history cache (isolating the layer)", n, workers, perWorker),
		"coalescing collapses identical in-flight queries into one wire request whose answer fans out to every waiter")
	return t, nil
}
