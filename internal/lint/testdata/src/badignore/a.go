// Package badignore exercises the malformed-directive diagnostics: a
// typo in a suppression must itself surface as a finding, never silently
// disable a check. The want-1 form is used because the flagged line is a
// comment and cannot carry a second comment.
package badignore

//hdlint:ignore
// want-1 `malformed directive`

//hdlint:ignore resultimmut
// want-1 `needs a reason`

//hdlint:ignore nosuchanalyzer because reasons
// want-1 `unknown analyzer nosuchanalyzer`

// An ignore naming an analyzer that was removed from the suite is
// unknown too: it would otherwise sit in the tree suppressing nothing.
//hdlint:ignore hotpath the one documented allocation
// want-1 `unknown analyzer hotpath`
