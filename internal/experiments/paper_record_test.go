//go:build paperrecord

package experiments

import "testing"

// TestPaperSuiteMatchesRecord is TestSmallSuiteMatchesRecord at the §4.1
// corpus scale (9,100 agents, 9,953 books, >20k topics) against
// experiments_paper_output.txt. It takes minutes, so it builds only under
// the paperrecord tag, which `make experiments-paper` sets;
// `make experiments-paper-record` rewrites the record.
func TestPaperSuiteMatchesRecord(t *testing.T) {
	requireRecord(t, Params{Seed: 1, Scale: "paper"}, "experiments_paper_output.txt", "make experiments-paper-record")
}
