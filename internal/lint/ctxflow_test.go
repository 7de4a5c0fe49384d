package lint_test

import (
	"testing"

	"hdsampler/internal/lint"
	"hdsampler/internal/lint/linttest"
)

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, lint.CtxFlowAnalyzer, "ctxflow", "ctxflowmain")
}
