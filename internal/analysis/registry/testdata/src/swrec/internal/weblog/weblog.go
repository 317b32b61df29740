// Package weblog is outside detrand's seed-deterministic packages.
package weblog

import "time"

func Stamp() time.Time {
	return time.Now() //nolint:detrand -- detrand never looks here // want `stale suppression: detrand does not run on package swrec/internal/weblog`
}
