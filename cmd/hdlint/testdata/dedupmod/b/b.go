// Package b imports a, so analyzing ./a and ./b together loads a twice
// over (pattern match plus import edge) — the finding in a must
// still print exactly once.
package b

import "dedupmod/a"

// Use consumes a's root context without holding one of its own.
func Use() {
	_ = a.Fresh()
}
