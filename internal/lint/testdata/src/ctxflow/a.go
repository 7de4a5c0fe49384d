// Package ctxflow is the corpus for the ctxflow analyzer.
package ctxflow

import "context"

func fresh() {
	_ = context.Background() // want `outside main, init, or tests`
}

func todo() {
	_ = context.TODO() // want `outside main, init, or tests`
}

func init() {
	_ = context.Background() // init may anchor process-lifetime state
}

func use(ctx context.Context) { _ = ctx }

// threaded does what the analyzer wants: the context flows through.
func threaded(ctx context.Context) {
	use(ctx)
}

func derived(ctx context.Context) {
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	use(sub)
}

func dropsDirect(ctx context.Context) {
	_ = context.Background() // want `discards the in-scope context "ctx"`
}

func suppressed(ctx context.Context) {
	//hdlint:ignore ctxflow the audit trail must survive request cancellation
	_ = context.Background()
}
