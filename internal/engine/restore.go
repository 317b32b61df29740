package engine

import (
	"context"
	"encoding/binary"
	"math"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/strategy"
)

// Options returns the pipeline options this snapshot serves with.
func (s *Snapshot) Options() core.Options { return s.opt }

// PeersEntry is one exported neighborhood-cache entry. A rank names its
// peer by ordinal alone, so neither side of the checkpoint resolves a URI.
type PeersEntry struct {
	Agent int32
	Pipe  string // the stages-1-3 override key and rung, PipeSize bytes
	// Ranks returns the ranking. A restored entry's is the checkpoint
	// decoder's materializer over the file bytes: NewRestored calls it at
	// most once, when something first reads the neighborhood.
	Ranks func() []core.PeerRank
}

// PipeSize is the width of PeersEntry.Pipe, the pipe key as fixed-width
// little-endian fields: u8 flags (1 metric, 2 alpha, 4 measure), u8 rung,
// i64 metric, i64 measure, f64 alpha; an absent field is zero. Only this
// file knows the layout.
const PipeSize = 26

// spell is k in its PipeSize bytes.
func (k pipeKey) spell() (b [PipeSize]byte) {
	b[1] = k.rung
	if k.hasMetric {
		b[0] |= 1
		binary.LittleEndian.PutUint64(b[2:], uint64(k.metric))
	}
	if k.hasAlpha {
		b[0] |= 2
		binary.LittleEndian.PutUint64(b[18:], math.Float64bits(k.alpha))
	}
	if k.hasMeasure {
		b[0] |= 4
		binary.LittleEndian.PutUint64(b[10:], uint64(k.measure))
	}
	return b
}

// pipeKeyOf inverts spell; ok is false for a spelling spell never makes,
// which restore drops rather than seed a key no request could probe.
func pipeKeyOf(s string) (pipeKey, bool) {
	var b [PipeSize]byte
	copy(b[:], s)
	k := pipeKey{
		hasMetric: b[0]&1 != 0, metric: core.Metric(binary.LittleEndian.Uint64(b[2:])),
		hasMeasure: b[0]&4 != 0, measure: cf.Measure(binary.LittleEndian.Uint64(b[10:])),
		hasAlpha: b[0]&2 != 0, alpha: math.Float64frombits(binary.LittleEndian.Uint64(b[18:])),
		rung: b[1],
	}
	return k, len(s) == PipeSize && k.spell() == b && (k.rung == 0 || k.rung == rungWiden || k.rung == rungGen)
}

// ExportPeers snapshots the warm neighborhood cache oldest-inserted
// first, so replaying the entries through a fresh cache reproduces the
// insertion order (every replayed entry starts unvisited). Values are
// shared, not copied (a restored entry not yet read decodes when its
// Ranks is called).
func (s *Snapshot) ExportPeers() []PeersEntry {
	es := s.peers.entries()
	out := make([]PeersEntry, len(es))
	spelled := map[pipeKey]string{} // a handful of distinct keys; one string each
	for i, e := range es {
		pipe, ok := spelled[e.key.pipe]
		if !ok {
			b := e.key.pipe.spell()
			pipe = string(b[:])
			spelled[e.key.pipe] = pipe
		}
		out[i] = PeersEntry{Agent: e.key.agent, Pipe: pipe, Ranks: e.val.ranks}
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
	restoresStat.Add(1)
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
		restoredRowsStat.Add(int64(mat.Len() - mat.Built()))
	}
	// Seed the warm caches. Entries whose agent ordinal lies outside the
	// restored community, or whose pipe spelling ExportPeers never writes,
	// are dropped: a cold miss is always safe, a mis-keyed hit never is.
	for _, e := range r.Peers {
		pipe, ok := pipeKeyOf(e.Pipe)
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
