package engine

import (
	"context"
	"strconv"
	"strings"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/strategy"
)

// Options returns the pipeline options this snapshot serves with.
func (s *Snapshot) Options() core.Options { return s.opt }

// PeersEntry is one exported neighborhood-cache entry: the active agent's
// ordinal and the pipe key spelled as a string (the checkpoint's wire
// spelling; the cache keys on a fixed-size struct). Every rank carries
// its peer's ordinal, so neither side of the checkpoint boundary resolves
// a URI.
type PeersEntry struct {
	Agent int32
	Pipe  string // the stages-1-3 override key; "" for the default pipeline
	// Ranks returns the ranking. A restored entry's is the checkpoint
	// decoder's materializer over the file bytes: NewRestored calls it at
	// most once, when something first reads the neighborhood.
	Ranks func() []core.PeerRank
}

// Wire spellings of the ladder rungs (see rungWiden/rungGen): kept
// identical to the pipe-string suffixes earlier releases checkpointed,
// so warm caches survive the key-representation change across restarts.
const (
	pipeWiden = "|w"
	pipeGen   = "|g"
)

// String spells the key in the checkpoint wire format: "m<metric>",
// "a<alpha>", "s<measure>" for the overrides present, then the rung
// suffix — byte-identical to the concatenated string keys the cache used
// before ordinal interning.
func (k pipeKey) String() string {
	var b []byte
	if k.hasMetric {
		b = append(b, 'm')
		b = strconv.AppendInt(b, int64(k.metric), 10)
	}
	if k.hasAlpha {
		b = append(b, 'a')
		b = strconv.AppendFloat(b, k.alpha, 'g', -1, 64)
	}
	if k.hasMeasure {
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(k.measure), 10)
	}
	switch k.rung {
	case rungWiden:
		b = append(b, pipeWiden...)
	case rungGen:
		b = append(b, pipeGen...)
	}
	return string(b)
}

// parsePipeKey inverts String. ok is false for malformed spellings —
// restore drops such entries rather than seeding a key no request could
// ever probe.
func parsePipeKey(s string) (pipeKey, bool) {
	var k pipeKey
	if rest, found := strings.CutSuffix(s, pipeWiden); found {
		k.rung, s = rungWiden, rest
	} else if rest, found := strings.CutSuffix(s, pipeGen); found {
		k.rung, s = rungGen, rest
	}
	// Fields appear in m, a, s order; each value runs to the next field
	// letter (metric and measure are decimal ints, alpha is a %g float —
	// none of which contain the letters themselves).
	cut := func(prefix byte, stops string) (string, bool) {
		if s == "" || s[0] != prefix {
			return "", false
		}
		s = s[1:]
		end := len(s)
		if i := strings.IndexAny(s, stops); i >= 0 {
			end = i
		}
		v := s[:end]
		s = s[end:]
		return v, true
	}
	if v, found := cut('m', "as"); found {
		n, err := strconv.Atoi(v)
		if err != nil {
			return pipeKey{}, false
		}
		k.hasMetric, k.metric = true, core.Metric(n)
	}
	if v, found := cut('a', "s"); found {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return pipeKey{}, false
		}
		k.hasAlpha, k.alpha = true, f
	}
	if v, found := cut('s', ""); found {
		n, err := strconv.Atoi(v)
		if err != nil {
			return pipeKey{}, false
		}
		k.hasMeasure, k.measure = true, cf.Measure(n)
	}
	if s != "" {
		return pipeKey{}, false
	}
	return k, true
}

// ExportPeers snapshots the warm neighborhood cache oldest-inserted
// first, so replaying the entries through a fresh cache reproduces the
// insertion order (every replayed entry starts unvisited). Values are
// shared, not copied (a restored entry not yet read decodes when its
// Ranks is called).
func (s *Snapshot) ExportPeers() []PeersEntry {
	es := s.peers.entries()
	out := make([]PeersEntry, len(es))
	for i, e := range es {
		out[i] = PeersEntry{Agent: e.key.agent, Pipe: e.key.pipe.String(), Ranks: e.val.ranks}
	}
	return out
}

// Restore is the state NewRestored installs without recomputation: a
// checkpointed epoch's community plus its compiled profile matrix and
// warm neighborhoods. Matrix may be nil (every row compiles afresh);
// Peers seeds the neighborhood cache in the order given (ExportPeers
// writes it oldest-inserted first), each entry decoded on first touch;
// its ranks must carry ordinals of Community. The topic index is
// derived from the catalog on first use, as in any snapshot.
type Restore struct {
	Epoch     uint64
	Community *model.Community
	Matrix    *profmat.Matrix
	Peers     []PeersEntry
}

// NewRestored builds an engine whose first snapshot is reconstructed
// from checkpointed state rather than compiled from scratch: the
// restored profile matrix and warm neighborhoods are installed directly,
// so the first request after a restart is as warm as the last request
// before it — no Appleseed, no Eq. 3, no similarity recompute.
// The epoch continues from the checkpoint (SwapDelta increments from
// it), keeping epoch numbers monotonic across the restart.
func NewRestored(r Restore, opt core.Options, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	ladder, err := strategy.New(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	epoch := r.Epoch
	if epoch == 0 {
		epoch = 1
	}
	snap, err := newSnapshotRestored(epoch, r, opt, cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, opt: opt, start: time.Now(), ladder: ladder}
	e.snap.Store(snap)
	stats.Add("restores", 1)
	return e, nil
}

// newSnapshotRestored builds a snapshot around pre-built artifacts. It
// mirrors newSnapshotDelta with every row "carried" from the restored
// matrix: CompileDelta over a prev of r.Matrix and an all-clean dirty
// set copies the rows without recompiling any, and validates coverage
// (an agent missing from the matrix — impossible in a well-formed
// checkpoint — would simply be compiled fresh).
func newSnapshotRestored(epoch uint64, r Restore, opt core.Options, cfg Config) (*Snapshot, error) {
	s, err := emptySnapshot(epoch, r.Community, opt, cfg)
	if err != nil {
		return nil, err
	}
	clean := func(int32) bool { return false }
	//nolint:ctxflow -- restore runs at process start, not on a request path; there is no caller deadline to thread
	if err := s.rec.Filter().CompileDelta(context.Background(), r.Matrix, clean); err != nil {
		return nil, err
	}
	if r.Matrix != nil {
		mat := s.rec.Filter().Matrix()
		stats.Add("restored_rows", int64(mat.Len()-mat.Built()))
	}
	// Seed the warm caches. Entries whose agent ordinal lies outside the
	// restored community, or whose pipe spelling no release ever wrote,
	// are dropped: a cold miss is always safe, a mis-keyed hit never is.
	for _, e := range r.Peers {
		pipe, ok := parsePipeKey(e.Pipe)
		if e.Agent < 0 || int(e.Agent) >= r.Community.NumAgents() || !ok {
			continue
		}
		s.peers.add(peerKey{agent: e.Agent, pipe: pipe}, restoredNeighborhood(e.Ranks))
	}
	return s, nil
}

// restoredNeighborhood is a neighborhood whose ranking load materializes
// on first read. Once it has, the entry lets go of load — and with it of
// the checkpoint bytes load reads.
func restoredNeighborhood(load func() []core.PeerRank) *neighborhood {
	nb := &neighborhood{load: load}
	nb.decode = func() { nb.list, nb.load = nb.load(), nil }
	return nb
}
