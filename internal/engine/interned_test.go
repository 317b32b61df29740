package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"swrec/internal/core"
)

// servingFingerprint hashes the complete serving output of a snapshot on
// the seeded differential corpus: for every agent, the ranked peers and
// the top-10 recommendations with full-precision scores, each peer named
// through the community's symbol table. Any behavioral
// drift in trust propagation, similarity, rank synthesis, or the vote
// changes the digest.
func servingFingerprint(t testing.TB, snap *Snapshot) string {
	t.Helper()
	var sb strings.Builder
	sym := snap.Community().Symbols()
	for _, id := range snap.Community().Agents() {
		peers, err := snap.RankedPeers(id, Overrides{})
		if err != nil {
			t.Fatalf("RankedPeers(%s): %v", id, err)
		}
		fmt.Fprintf(&sb, "A %s\n", id)
		for _, p := range peers {
			peer, _ := sym.AgentID(p.Ord())
			fmt.Fprintf(&sb, "P %s %.12g %.12g %t %.12g\n", peer, p.Trust, p.Sim, p.SimOK, p.Weight)
		}
		recs, err := snap.Recommend(id, 10, Overrides{})
		if err != nil {
			t.Fatalf("Recommend(%s): %v", id, err)
		}
		for _, r := range recs {
			fmt.Fprintf(&sb, "R %s %.12g %d\n", r.Product, r.Score, r.Supporters)
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// preInternFingerprint is the serving fingerprint of the seeded corpus
// (datagen.SmallScale, 120 agents / 240 products, test options with the
// whole community in range) computed by the string-keyed implementation
// immediately before the interned-ID refactor, when a zero bound still
// meant "everyone". The differential test below pins the interned data
// model — and every later change to the walk, the scan and the rank
// synthesis — to byte-identical serving output under those bounds.
const preInternFingerprint = "3976785e17235065ef071ec31b2d94984bc9785eb234cc41e81d13212a57f178"

// boundedFingerprint is the same corpus served under the default
// neighborhood bounds (R = 400, M = 150, floor 0.0001), recorded by the PR
// that made them the zero value's meaning. At 120 agents only the floor
// binds.
const boundedFingerprint = "7d78c3800e01eeea91fe0e541e2a50d714d5159a46021133d72b9c557c0ccb95"

// wholeRange states bounds that never bind on a community of n agents:
// the expansion range and M cover everyone and the floor sits below any
// rank a walk can produce. It is what "unbounded" is spelled as now that
// the zero value means the defaults.
func wholeRange(opt core.Options, n int) core.Options {
	opt.Appleseed.MaxNodes = n
	opt.MaxNeighbors = n
	opt.TrustThreshold = 1e-300
	return opt
}

// TestInternedFingerprintMatchesPreRefactor is the interning refactor's
// differential gate: rekeying every hot-path structure on dense int32
// ordinals must not move a single score bit. The corpus, options, and
// answer sizes match the constants' recording runs exactly.
func TestInternedFingerprintMatchesPreRefactor(t *testing.T) {
	comm := testCommunity(t, 120, 240)
	for _, tc := range []struct {
		name string
		opt  core.Options
		want string
	}{
		{"whole range", wholeRange(testOptions(), comm.NumAgents()), preInternFingerprint},
		{"default bounds", testOptions(), boundedFingerprint},
	} {
		e, err := New(comm, tc.opt, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := servingFingerprint(t, e.Snapshot()); got != tc.want {
			t.Errorf("%s: serving fingerprint drifted from the recording:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
