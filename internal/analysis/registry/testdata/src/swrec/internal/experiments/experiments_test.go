package experiments

// The analyzers skip test files, so their directives are not audited.
var fixture = 1 //nolint:detrand -- test files are out of scope
