// Line directives: each covers its own line and the next.
package experiments

import "time"

// Live directives cover a detrand diagnostic and are not reported.
func Live() time.Duration {
	start := time.Now() //nolint:detrand -- covers its own line
	//nolint:detrand -- covers the line below
	return time.Since(start)
}

// Stale directives cover nothing.
func Stale() int {
	n := 1 //nolint:detrand -- nothing reads the clock here // want `stale suppression: no detrand diagnostic fires on its line or the next`
	//nolint:detrand -- nor on the line below // want `stale suppression: no detrand diagnostic fires on its line or the next`
	n++
	return n
}

func Unknown() int {
	return 2 //nolint:ghost -- no such analyzer // want `stale suppression: analyzer "ghost" is not registered`
}

// An unjustified directive is inert: it suppresses nothing, so it is
// never stale either.
func Inert() int {
	return 3 //nolint:detrand
}

// A directive naming two analyzers gets one verdict each: detrand
// covers the clock read, ctxflow never runs on this package.
func Mixed() time.Time {
	return time.Now() //nolint:detrand,ctxflow -- wall clock on purpose // want `stale suppression: ctxflow does not run on package swrec/internal/experiments`
}
