// Package a carries one deliberate ctxflow finding for the
// deduplication regression test: it is loaded both as a requested
// pattern and as an import of package b.
package a

import "context"

// Fresh returns a detached root context.
func Fresh() context.Context {
	return context.Background()
}
