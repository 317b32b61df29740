// Package time is a fixture stub (path-based type identity).
package time

type Time struct{ ns int64 }

type Duration int64

func Now() Time { return Time{} }

func Since(t Time) Duration { return 0 }
