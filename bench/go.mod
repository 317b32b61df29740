// The benchmark is a module of its own so that it builds from its own
// build file and the program's `go build ./... && go test ./...` never
// compiles it. The module path sits under swrec/ so the program's
// internal packages stay importable; the replace points at the checkout
// the benchmark is run from.
module swrec/bench

go 1.22

require swrec v0.0.0

replace swrec => ../
