// Package ingest is the durable write path between clients publishing
// new statements and the read-optimized serving engine: a batching
// applier that accepts typed mutations concurrently, makes them durable
// in a write-ahead log (internal/wal), and folds them into the serving
// state through epoch snapshot swaps (internal/engine) — off the hot
// read path.
//
// The paper's installations continually receive new trust statements and
// ratings ("tailored crawlers ... ensure data freshness", §4.1; the
// related P2P work has peers pushing updates into each other's local
// views). The engine serves immutable snapshots, so mutations cannot be
// applied in place; instead the pipeline:
//
//  1. accepts mutations on a bounded queue (a full queue returns
//     ErrOverloaded — backpressure instead of collapse);
//  2. drains them in batches, appends each batch to the WAL with one
//     fsync (group commit), and only then acknowledges the submitters —
//     an acknowledged write survives a crash;
//  3. accumulates appended mutations into a delta set and, when the
//     delta is large enough or old enough, clones the current community,
//     applies the delta to the clone, and publishes it via Engine.Swap
//     under a fresh epoch.
//
// Durability across restarts: the compiled checkpoint
// (internal/checkpoint) is the one durable snapshot, and its file name
// the one epoch↔sequence record. Every CheckpointEvery published
// snapshots and once at Close, the serving snapshot is captured and
// handed to one writer goroutine (the write stays off the worker's
// append/apply path), which writes
// <dir>/checkpoints/ckpt-<seq>.swc, prunes to the newest
// CheckpointRetain files, then truncates the WAL segments no retained
// checkpoint needs for tail replay — in that order, so a crash at any
// point leaves every retained checkpoint with its tail still in the log.
// A restart restores the newest usable checkpoint with
// checkpoint.Recover and replays only the records above it with OpenFrom
// (see DESIGN.md §11). Replay in sequence order is idempotent (upserts
// are last-writer-wins, retractions are absorbing).
//
// The pipeline must be the engine's only swapper while it runs.
//
// Observability: expvar map "swrec_ingest" (appended, applied,
// snapshot_builds, replay_records, queue_depth, overloaded,
// apply_errors, compiled_checkpoints, compiled_checkpoint_errors,
// compiled_checkpoint_skipped).
package ingest

import (
	"errors"
	"expvar"
	"fmt"
	"os"
	"sync"
	"time"

	"swrec/internal/checkpoint"
	"swrec/internal/engine"
	"swrec/internal/frame"
	"swrec/internal/isbn"
	"swrec/internal/model"
	"swrec/internal/wal"
)

// stats aggregates ingest counters across all pipelines in the process.
var stats = expvar.NewMap("swrec_ingest")

var (
	// ErrOverloaded is returned by Submit when the ingest queue is full —
	// the backpressure signal (HTTP 503 at the API layer).
	ErrOverloaded = errors.New("ingest: queue full, try again later")
	// ErrClosed is returned by operations on a closed pipeline.
	ErrClosed = errors.New("ingest: closed")
	// ErrInvalid wraps mutation validation failures.
	ErrInvalid = errors.New("ingest: invalid mutation")
)

// Config tunes the pipeline. Zero values select defaults.
type Config struct {
	// QueueSize bounds concurrently pending submissions (default 1024);
	// beyond it Submit returns ErrOverloaded.
	QueueSize int
	// BatchSize caps mutations per WAL append / group commit (default 256).
	BatchSize int
	// SnapshotEvery triggers a snapshot build once this many appended
	// mutations await application (default 4096).
	SnapshotEvery int
	// SnapshotInterval triggers a snapshot build once the oldest pending
	// mutation is this old (default 2s).
	SnapshotInterval time.Duration
	// CheckpointEvery, when positive, writes a compiled checkpoint
	// (internal/checkpoint) every that many published snapshots, plus one
	// at Close. 0 writes none and never truncates the WAL (the default
	// for library users; cmd/swrecd sets it).
	CheckpointEvery int
	// CheckpointRetain bounds the compiled checkpoint files kept on disk
	// (default 2: the newest plus one fallback for the recovery ladder).
	// The WAL is truncated to the oldest of them.
	CheckpointRetain int
	// CheckpointWrap, when non-nil, interposes on compiled-checkpoint
	// file handles — the fault-injection seam (internal/faultinject).
	CheckpointWrap func(*os.File) frame.File
	// WAL configures the underlying log (segment size, fsync).
	WAL wal.Options
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 2 * time.Second
	}
	if c.CheckpointRetain <= 0 {
		c.CheckpointRetain = 2
	}
	return c
}

// submission is one queued mutation plus its acknowledgment channel.
type submission struct {
	m   wal.Mutation
	res chan subResult
}

type subResult struct {
	seq uint64
	err error
}

// Pipeline is the ingestion subsystem over one engine and one WAL
// directory. Submit is safe for concurrent use.
type Pipeline struct {
	eng *engine.Engine
	w   *wal.WAL
	dir string
	cfg Config

	queue chan submission
	flush chan chan error
	quit  chan struct{} // closed by Close: drain, flush, exit
	abort chan struct{} // closed by Abort: exit without applying
	done  chan struct{}

	// ckptJobs carries captured images to the checkpoint writer, the one
	// goroutine that writes, prunes and truncates. Cap 1: the periodic
	// enqueue never blocks, so a slow disk drops checkpoints (counted)
	// instead of stalling the worker; Close waits its turn. Closed by
	// run() on exit; ckptDone closes when the writer has drained.
	ckptJobs chan *checkpoint.Image
	ckptDone chan struct{}
	// snapsSinceCkpt counts published snapshots toward CheckpointEvery
	// (worker-owned).
	snapsSinceCkpt int

	closeMu  sync.RWMutex
	closed   bool
	stopOnce sync.Once

	// gate, when non-nil, is received from before each batch append so
	// tests can hold the worker and observe backpressure deterministically.
	gate chan struct{}

	// Worker-owned state (no locks: only the worker goroutine touches
	// these after Open returns).
	base    *model.Community // community backing the engine's snapshot
	delta   []wal.Mutation   // appended but not yet applied
	deltaAt time.Time        // when the oldest delta entry was appended

	// Cross-goroutine observability.
	obsMu    sync.Mutex
	epoch    uint64 // epoch of the last published snapshot
	applied  uint64 // last sequence number folded into the serving state
	replayed int    // records replayed at Open
}

// Open is OpenFrom at sequence 0: the engine must be serving the source
// corpus, and the whole WAL is replayed onto it. A directory that has
// been checkpointed no longer holds the whole WAL and fails here; start
// it through checkpoint.Recover and OpenFrom.
func Open(eng *engine.Engine, dir string, cfg Config) (*Pipeline, error) {
	return OpenFrom(eng, dir, cfg, 0)
}

// OpenFrom opens (creating if necessary) the WAL in dir, replays every
// record after seq — the last WAL sequence the engine's community
// already covers, as checkpoint.Recover reports it — publishing one
// recovery snapshot if anything was replayed, and starts the pipeline. A
// log truncated past seq+1 cannot bring that community up to date and is
// an error, not a shorter replay. A log that ends before seq (its
// segments are gone) resumes numbering at seq+1: no write is ever
// acknowledged under a sequence number the engine already covers.
func OpenFrom(eng *engine.Engine, dir string, cfg Config, seq uint64) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	oldest, ok, err := wal.OldestSeq(dir)
	if err != nil {
		return nil, err
	}
	if ok && oldest > seq+1 {
		return nil, fmt.Errorf("ingest: WAL in %s starts at seq %d but the engine covers only seq %d: records %d-%d were truncated after a checkpoint (start from checkpoint.Recover)",
			dir, oldest, seq, seq+1, oldest-1)
	}
	// The tail is read by the walk that opens the log: one pass over it.
	var tail []wal.Mutation
	var last uint64
	w, err := wal.OpenReplay(dir, cfg.WAL, seq+1, func(s uint64, m wal.Mutation) error {
		tail, last = append(tail, m), s
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := w.StartAfter(seq); err != nil {
		w.Close()
		return nil, err
	}
	p := &Pipeline{
		eng:      eng,
		w:        w,
		dir:      dir,
		cfg:      cfg,
		queue:    make(chan submission, cfg.QueueSize),
		flush:    make(chan chan error),
		quit:     make(chan struct{}),
		abort:    make(chan struct{}),
		done:     make(chan struct{}),
		ckptJobs: make(chan *checkpoint.Image, 1),
		ckptDone: make(chan struct{}),
	}
	snap := eng.Snapshot()
	p.base = snap.Community()
	p.epoch = snap.Epoch()
	p.applied = seq
	if err := p.replay(tail, last); err != nil {
		w.Close()
		return nil, err
	}
	go p.ckptWriter()
	go p.run()
	return p, nil
}

// replay publishes the WAL tail muts, whose last sequence number is
// last, as one recovery epoch.
func (p *Pipeline) replay(muts []wal.Mutation, last uint64) error {
	if len(muts) == 0 {
		return nil
	}
	if _, err := p.publish(muts, last); err != nil {
		return fmt.Errorf("ingest: replay swap: %w", err)
	}
	p.replayed = len(muts)
	stats.Add("replay_records", int64(len(muts)))
	return nil
}

// publish is the one place a generation is derived, written and handed
// to the engine: clone the base community (the clone shares every record
// with the serving snapshot), fold muts into it through Apply — whose
// setters copy a record before its first write, so the published base is
// never written — and swap it in under a fresh epoch with the batch's
// delta. applied is the last WAL sequence muts covers. On error nothing
// is published and the base is unchanged.
func (p *Pipeline) publish(muts []wal.Mutation, applied uint64) (*engine.Snapshot, error) {
	clone := p.base.Clone()
	for _, m := range muts {
		if err := Apply(clone, m); err != nil {
			stats.Add("apply_errors", 1)
		}
	}
	snap, err := p.eng.SwapDelta(clone, deltaOf(p.base, clone, muts))
	if err != nil {
		return nil, err
	}
	p.base = clone
	p.obsMu.Lock()
	p.epoch = snap.Epoch()
	p.applied = applied
	p.obsMu.Unlock()
	return snap, nil
}

// Replayed reports how many WAL records Open replayed.
func (p *Pipeline) Replayed() int {
	p.obsMu.Lock()
	defer p.obsMu.Unlock()
	return p.replayed
}

// Applied returns the epoch↔sequence mapping of the serving state: the
// epoch last published and the last sequence number folded into it.
func (p *Pipeline) Applied() (epoch, seq uint64) {
	p.obsMu.Lock()
	defer p.obsMu.Unlock()
	return p.epoch, p.applied
}

// Submit validates the mutation, enqueues it, and blocks until its batch
// is durably appended to the WAL, returning the assigned sequence
// number. The mutation becomes visible to readers at the next snapshot
// swap. A full queue fails fast with ErrOverloaded.
func (p *Pipeline) Submit(m wal.Mutation) (uint64, error) {
	if err := Validate(m); err != nil {
		return 0, err
	}
	sub := submission{m: m, res: make(chan subResult, 1)}
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		return 0, ErrClosed
	}
	select {
	case p.queue <- sub:
		p.closeMu.RUnlock()
		stats.Add("queue_depth", 1)
	default:
		p.closeMu.RUnlock()
		stats.Add("overloaded", 1)
		return 0, ErrOverloaded
	}
	r := <-sub.res
	return r.seq, r.err
}

// QueueStats reports the current backlog and capacity of the submission
// queue; the API layer uses the ratio to derive Retry-After hints under
// overload.
func (p *Pipeline) QueueStats() (depth, capacity int) {
	return len(p.queue), cap(p.queue)
}

// Flush forces application of every acknowledged mutation: it blocks
// until the pending delta has been published via Engine.Swap.
func (p *Pipeline) Flush() error {
	res := make(chan error, 1)
	select {
	case p.flush <- res:
		return <-res
	case <-p.done:
		return ErrClosed
	}
}

// Close drains the queue, appends and applies everything pending, writes
// a final checkpoint when CheckpointEvery is set — so the next start
// replays nothing — and releases the WAL.
func (p *Pipeline) Close() error {
	return p.shutdown(p.quit)
}

// Abort stops the pipeline without applying the pending delta — the
// programmatic equivalent of kill -9 for crash-recovery tests and fast
// shutdown. Acknowledged mutations are already durable in the WAL and
// will be replayed on the next Open.
func (p *Pipeline) Abort() error {
	return p.shutdown(p.abort)
}

func (p *Pipeline) shutdown(signal chan struct{}) error {
	p.closeMu.Lock()
	already := p.closed
	p.closed = true
	p.closeMu.Unlock()
	p.stopOnce.Do(func() { close(signal) })
	<-p.done
	if already {
		return nil
	}
	return p.w.Close()
}

// run is the single worker goroutine: group-commit appends, snapshot
// triggers, flush requests.
func (p *Pipeline) run() {
	defer close(p.done)
	tick := p.cfg.SnapshotInterval / 2
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-p.abort:
			p.drainRejecting()
			p.stopCkptWriter()
			return
		case <-p.quit:
			p.drainAppending()
			p.snapshot()
			if p.cfg.CheckpointEvery > 0 {
				// Unlike the periodic one, the final checkpoint waits for
				// the writer's slot; stopCkptWriter waits for the write.
				_, seq := p.Applied()
				p.ckptJobs <- checkpoint.Capture(p.eng.Snapshot(), seq)
			}
			p.stopCkptWriter()
			return
		case sub := <-p.queue:
			if p.gate != nil {
				<-p.gate
			}
			p.appendBatch(sub)
			if len(p.delta) >= p.cfg.SnapshotEvery {
				p.snapshot()
			}
		case <-ticker.C:
			if len(p.delta) > 0 && time.Since(p.deltaAt) >= p.cfg.SnapshotInterval {
				p.snapshot()
			}
		case res := <-p.flush:
			res <- p.snapshot()
		}
	}
}

// appendBatch drains up to BatchSize-1 more queued submissions, appends
// them to the WAL as one group commit, and acknowledges every submitter.
func (p *Pipeline) appendBatch(first submission) {
	batch := []submission{first}
	for len(batch) < p.cfg.BatchSize {
		select {
		case sub := <-p.queue:
			batch = append(batch, sub)
		default:
			goto drained
		}
	}
drained:
	stats.Add("queue_depth", -int64(len(batch)))
	muts := make([]wal.Mutation, len(batch))
	for i, sub := range batch {
		muts[i] = sub.m
	}
	firstSeq, _, err := p.w.Append(muts)
	if err != nil {
		for _, sub := range batch {
			sub.res <- subResult{err: err}
		}
		return
	}
	if len(p.delta) == 0 {
		p.deltaAt = time.Now()
	}
	p.delta = append(p.delta, muts...)
	stats.Add("appended", int64(len(muts)))
	for i, sub := range batch {
		sub.res <- subResult{seq: firstSeq + uint64(i)}
	}
}

// snapshot publishes the pending delta under a fresh epoch. The serving
// hot path never sees the mutable clone.
func (p *Pipeline) snapshot() error {
	if len(p.delta) == 0 {
		return nil
	}
	applied := p.w.NextSeq() - 1
	snap, err := p.publish(p.delta, applied)
	if err != nil {
		// The delta stays pending; a later snapshot retries. This only
		// happens when a mutation made the community incompatible with
		// the engine's options, which validation is meant to prevent.
		stats.Add("swap_errors", 1)
		return fmt.Errorf("ingest: swap: %w", err)
	}
	stats.Add("applied", int64(len(p.delta)))
	stats.Add("snapshot_builds", 1)
	p.delta = p.delta[:0]
	if p.cfg.CheckpointEvery > 0 {
		p.snapsSinceCkpt++
		if p.snapsSinceCkpt >= p.cfg.CheckpointEvery {
			p.snapsSinceCkpt = 0
			// With the writer's slot taken the checkpoint is skipped — a
			// later, newer one supersedes it anyway — before Capture
			// copies the warm neighbourhoods for nothing. The worker is
			// the only sender, so a free slot stays free until the send.
			// The capture reads only immutable snapshot state.
			if len(p.ckptJobs) < cap(p.ckptJobs) {
				p.ckptJobs <- checkpoint.Capture(snap, applied)
			} else {
				stats.Add("compiled_checkpoint_skipped", 1)
			}
		}
	}
	return nil
}

// ckptWriter is the checkpoint goroutine: it takes captured images off
// the worker's hot path and persists them one at a time, never touching
// worker-owned state. It exits when run() closes ckptJobs.
func (p *Pipeline) ckptWriter() {
	defer close(p.ckptDone)
	for img := range p.ckptJobs {
		// A failure is counted, not fatal: the WAL still holds every
		// record a surviving checkpoint needs.
		if err := p.persist(img); err != nil {
			stats.Add("compiled_checkpoint_errors", 1)
		} else {
			stats.Add("compiled_checkpoints", 1)
		}
	}
}

// stopCkptWriter ends the checkpoint writer and waits for any in-flight
// write to finish — called by run() on either exit path, before the WAL
// is closed under it.
func (p *Pipeline) stopCkptWriter() {
	close(p.ckptJobs)
	<-p.ckptDone
}

// persist is the one durable-snapshot routine, run only by ckptWriter:
// write the image into <dir>/checkpoints, prune to the retention bound,
// then truncate the WAL to the oldest checkpoint still retained — every
// retained file keeps its tail (Seq+1 ...), so the recovery ladder can
// fall back to any of them. A failure is not fatal: nothing was
// truncated that a surviving checkpoint needs, and the next interval
// retries.
func (p *Pipeline) persist(img *checkpoint.Image) error {
	dir := checkpoint.Dir(p.dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ingest: checkpoint: %w", err)
	}
	if _, err := checkpoint.WriteImage(dir, img, p.cfg.CheckpointWrap); err != nil {
		return err
	}
	if err := checkpoint.Prune(dir, p.cfg.CheckpointRetain); err != nil {
		return err
	}
	infos, err := checkpoint.List(dir)
	if err != nil || len(infos) == 0 { // empty only if the files were removed under us: keep the whole log
		return err
	}
	_, err = p.w.TruncateBefore(infos[len(infos)-1].Seq + 1)
	return err
}

// drainRejecting empties the queue on Abort, failing every waiter.
func (p *Pipeline) drainRejecting() {
	for {
		select {
		case sub := <-p.queue:
			stats.Add("queue_depth", -1)
			sub.res <- subResult{err: ErrClosed}
		default:
			return
		}
	}
}

// drainAppending empties the queue on Close, appending everything so no
// acknowledged-or-queued mutation is lost.
func (p *Pipeline) drainAppending() {
	for {
		select {
		case sub := <-p.queue:
			p.appendBatch(sub)
		default:
			return
		}
	}
}

// deltaOf summarizes a mutation batch as an engine.Delta, so the epoch
// swap can carry over every cache entry the batch cannot have
// invalidated. Novelty (new agents, new products) is judged against the
// pre-application base; dirty marks are agent ordinals resolved against
// the post-application clone, which knows every agent the batch touched
// — including ones it just created, which have no ordinal in base.
// Marks are conservative: an upsert that restates the existing value
// still marks its agent dirty, which costs recomputation but never
// staleness.
func deltaOf(base, clone *model.Community, muts []wal.Mutation) *engine.Delta {
	d := engine.NewDelta()
	sym := clone.Symbols()
	mark := func(set map[int32]bool, id model.AgentID) {
		if ord, ok := sym.AgentOrd(id); ok {
			set[ord] = true
		}
	}
	for _, m := range muts {
		switch m.Op {
		case wal.OpUpsertAgent:
			if base.Agent(m.Agent) == nil {
				d.AgentsAdded = true
			}
		case wal.OpUpsertTrust:
			mark(d.TrustChanged, m.Agent)
			// SetTrust materializes both endpoints.
			if base.Agent(m.Agent) == nil || base.Agent(m.Peer) == nil {
				d.AgentsAdded = true
			}
		case wal.OpDeleteTrust:
			mark(d.TrustChanged, m.Agent)
		case wal.OpUpsertRating:
			mark(d.RatingsChanged, m.Agent)
			if base.Agent(m.Agent) == nil {
				d.AgentsAdded = true
			}
			// Rating an uncataloged product registers a bare entry.
			if base.Product(m.Product) == nil {
				d.ProductsChanged = true
			}
		case wal.OpDeleteRating:
			mark(d.RatingsChanged, m.Agent)
		}
	}
	return d
}

// Validate statically checks a mutation: known op, non-empty
// identifiers, values inside [-1,+1], no self-trust. It is the shared
// gate in front of the WAL — nothing invalid becomes durable.
func Validate(m wal.Mutation) error {
	if m.Agent == "" {
		return fmt.Errorf("%w: empty agent ID", ErrInvalid)
	}
	switch m.Op {
	case wal.OpUpsertTrust, wal.OpDeleteTrust:
		if m.Peer == "" {
			return fmt.Errorf("%w: empty peer ID", ErrInvalid)
		}
		if m.Peer == m.Agent {
			return fmt.Errorf("%w: %v", ErrInvalid, model.ErrSelfTrust)
		}
		if m.Op == wal.OpUpsertTrust && !model.InRange(m.Value) {
			return fmt.Errorf("%w: trust value %v outside [-1,+1]", ErrInvalid, m.Value)
		}
	case wal.OpUpsertRating, wal.OpDeleteRating:
		if m.Product == "" {
			return fmt.Errorf("%w: empty product ID", ErrInvalid)
		}
		if m.Op == wal.OpUpsertRating && !model.InRange(m.Value) {
			return fmt.Errorf("%w: rating value %v outside [-1,+1]", ErrInvalid, m.Value)
		}
	case wal.OpUpsertAgent:
		// Name is free-form and optional.
	default:
		return fmt.Errorf("%w: unknown op %d", ErrInvalid, m.Op)
	}
	return nil
}

// ValidateIn checks m against a community view (a snapshot's community;
// read-only): an upserted rating must reference a cataloged product or
// carry a checksum-valid ISBN URN, in which case a bare catalog entry
// will be registered on apply — the §3.1 rule that ratings refer to
// globally agreed identifiers.
func ValidateIn(c *model.Community, m wal.Mutation) error {
	if err := Validate(m); err != nil {
		return err
	}
	if m.Op == wal.OpUpsertRating && c.Product(m.Product) == nil {
		raw, isURN := isbn.FromURN(string(m.Product))
		if !isURN || !isbn.Valid(raw) {
			return fmt.Errorf("%w: product %s is neither cataloged nor a valid ISBN URN",
				ErrInvalid, m.Product)
		}
	}
	return nil
}

// Apply folds one mutation into a mutable community. Upserts are
// last-writer-wins, retractions of absent statements are no-ops, and a
// rating of an uncataloged product registers a bare catalog entry —
// together this makes ordered replay idempotent.
func Apply(c *model.Community, m wal.Mutation) error {
	switch m.Op {
	case wal.OpUpsertAgent:
		a := c.AddAgent(m.Agent)
		if m.Name != "" {
			a.Name = m.Name
		}
		return nil
	case wal.OpUpsertTrust:
		return c.SetTrust(m.Agent, m.Peer, m.Value)
	case wal.OpDeleteTrust:
		c.DeleteTrust(m.Agent, m.Peer)
		return nil
	case wal.OpUpsertRating:
		if c.Product(m.Product) == nil {
			c.AddProduct(model.Product{ID: m.Product})
		}
		return c.SetRating(m.Agent, m.Product, m.Value)
	case wal.OpDeleteRating:
		c.DeleteRating(m.Agent, m.Product)
		return nil
	default:
		return fmt.Errorf("%w: unknown op %d", ErrInvalid, m.Op)
	}
}
