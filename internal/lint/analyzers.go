package lint

// Analyzers is the full hdlint suite, in the order findings are
// documented in doc.go.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ResultImmutAnalyzer,
		ErrTransientAnalyzer,
		CtxFlowAnalyzer,
	}
}
