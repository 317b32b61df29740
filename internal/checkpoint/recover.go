package checkpoint

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/metrics"
	"swrec/internal/model"
	"swrec/internal/wal"
)

// DirName is the compiled-checkpoint directory inside a WAL directory.
const DirName = "checkpoints"

// Dir returns the compiled-checkpoint directory for a WAL directory.
func Dir(walDir string) string { return filepath.Join(walDir, DirName) }

// recoveryStats publishes the ladder's outcome under "swrec_recovery":
// monotonic counters (recoveries, per-source counts, rejected
// checkpoints) plus last_* gauges describing the most recent recovery —
// last_load_ms the whole ladder walk, last_read_us, last_decode_us and
// last_restore_us the rung that served (see phases).
var (
	recoveryStats  = metrics.NewMap("recovery")
	recoveriesStat = recoveryStats.Counter("recoveries")
	rejectedStat   = recoveryStats.Counter("rejected_checkpoints")
	sourceStats    = map[string]*metrics.Counter{ // by Result.Source
		"checkpoint":            recoveryStats.Counter("source_checkpoint"),
		"checkpoint-prev":       recoveryStats.Counter("source_checkpoint_prev"),
		"checkpoint-recompiled": recoveryStats.Counter("source_checkpoint_recompiled"),
		"corpus":                recoveryStats.Counter("source_corpus"),
	}
	lastRung      = recoveryStats.Gauge("last_rung")
	lastEpoch     = recoveryStats.Gauge("last_epoch")
	lastSeq       = recoveryStats.Gauge("last_seq")
	lastLoadMS    = recoveryStats.Gauge("last_load_ms")
	lastReadUS    = recoveryStats.Gauge("last_read_us")
	lastDecodeUS  = recoveryStats.Gauge("last_decode_us")
	lastRestoreUS = recoveryStats.Gauge("last_restore_us")
)

// RecoverConfig parameterizes one walk down the recovery ladder.
type RecoverConfig struct {
	// WALDir is the durable state root: WAL segments at the top level,
	// compiled checkpoints in DirName.
	WALDir string
	// Options is the pipeline configuration the engine will serve with.
	// A checkpoint written under a different signature gives up its
	// compiled state and is recompiled from its statements (rung 3 adapts
	// the representation itself for a taxonomy-less community, mirroring
	// cmd/swrecd).
	Options core.Options
	// Engine sizes the recovered engine's caches.
	Engine engine.Config
	// Corpus loads the original corpus — the rung-3 source of last
	// resort. Required.
	Corpus func() (*model.Community, error)
	// Logf, when non-nil, receives one line per ladder decision.
	Logf func(format string, args ...any)
}

// Result describes where the ladder landed.
type Result struct {
	// Engine is the recovered serving engine. The caller finishes
	// recovery by opening ingest at Seq, which replays the unapplied WAL
	// tail (ingest.OpenFrom).
	Engine *engine.Engine
	// Source names the rung that served: "checkpoint" (1),
	// "checkpoint-prev" (2), or "corpus" (3) — or, on rung 1 or 2,
	// "checkpoint-recompiled" when the file was written under other
	// options or in format v1 or v2 and only its statements were kept: the
	// state is as current as that rung's, but the engine starts cold.
	Source string
	// Rung is the ladder position, 1 (best) through 3 (cold rebuild).
	Rung int
	// Epoch and Seq are the recovered state's epoch and the last WAL
	// sequence it already covers.
	Epoch uint64
	Seq   uint64
	// Path is the file the state was loaded from (empty for rung 3).
	Path string
	// Load is the wall-clock time of the whole ladder walk.
	Load time.Duration
	// Fallbacks records why each higher rung was passed over.
	Fallbacks []string
}

// Recover walks the ladder: (1) the newest compiled checkpoint, (2) any
// older retained checkpoint, (3) a from-scratch rebuild of the original
// corpus. Every rejection is logged and recorded. Corruption in any file
// on the way down is detected (checksums), never served, and a rung is
// taken only when the retained WAL still holds every record after it. A
// checkpoint compiled under other options, or written in format v1 or
// v2, stays on its rung: only its statements are read and compiled cold.
// When no checkpoint is readable (all corrupt, missing, uncovered, or of
// a format version this build does not speak) and the WAL no longer
// starts at sequence 1, nothing can rebuild the acknowledged state, and
// Recover fails naming each file's reason and the gap instead of serving
// a community that is missing writes.
func Recover(cfg RecoverConfig) (*Result, error) {
	start := time.Now()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Result{}
	skip := func(what string, err error) {
		res.Fallbacks = append(res.Fallbacks, fmt.Sprintf("%s: %v", what, err))
		logf("recovery: skipping %s: %v", what, err)
	}

	infos, err := List(Dir(cfg.WALDir))
	if err != nil {
		skip("checkpoint listing", err)
	}
	oldest, hasWAL, err := wal.OldestSeq(cfg.WALDir)
	if err != nil {
		// An unreadable WAL directory will fail ingest.Open anyway; for
		// rung selection treat it as absent.
		skip("wal coverage probe", err)
		hasWAL = false
	}
	// covered reports whether a source at seq can be brought up to date:
	// the WAL tail (seq+1 ...) must still be retained, or replay would
	// silently skip acked writes. An absent WAL has no records to lose.
	covered := func(seq uint64) bool { return !hasWAL || oldest <= seq+1 }
	for i, info := range infos {
		if !covered(info.Seq) {
			rejectedStat.Add(1)
			skip(info.Path, fmt.Errorf("wal starts at seq %d, after checkpoint seq %d", oldest, info.Seq))
			continue
		}
		var ph phases
		t := time.Now()
		head, tail, err := readFile(info.Path)
		ph.read = time.Since(t)
		if err != nil {
			rejectedStat.Add(1)
			skip(info.Path, err)
			continue
		}
		t = time.Now()
		img, err := decode(head, tail, cfg.Options, false)
		recompiled := errors.Is(err, ErrOptions) || errors.Is(err, errOlder)
		if recompiled {
			// Compiled under other options or written in v1 or v2: its rows
			// and caches are of no use to this engine, its statements are.
			// Keep those and let Restore compile them cold, so an
			// installation whose WAL has been truncated can change options
			// and upgrade.
			res.Fallbacks = append(res.Fallbacks, fmt.Sprintf("%s: %v (statements kept, recompiled)", info.Path, err))
			logf("recovery: %s: %v; keeping its statements and recompiling", info.Path, err)
			img, err = decode(head, tail, cfg.Options, true)
		}
		ph.decode = time.Since(t)
		if err != nil {
			rejectedStat.Add(1)
			skip(info.Path, err)
			continue
		}
		t = time.Now()
		eng, err := img.Restore(cfg.Engine)
		ph.restore = time.Since(t)
		if err != nil {
			rejectedStat.Add(1)
			skip(info.Path, err)
			continue
		}
		rung, source := 1, "checkpoint"
		if i > 0 {
			rung, source = 2, "checkpoint-prev"
		}
		if recompiled {
			source = "checkpoint-recompiled"
		}
		return finish(res, eng, rung, source, img.Epoch, img.Seq, info.Path, start, ph)
	}

	// Rung 3: rebuild from the original corpus, which covers sequence 0,
	// and replay the whole WAL — which must therefore still be whole.
	// Files an older build left in the directory (snapshot/, CHECKPOINT)
	// are not read.
	if !covered(0) {
		return nil, fmt.Errorf("checkpoint: recovery exhausted: no usable checkpoint in %s (rejected: %q) and the WAL starts at seq %d, so records 1-%d cannot be replayed onto the corpus",
			Dir(cfg.WALDir), res.Fallbacks, oldest, oldest-1)
	}
	var ph phases
	t := time.Now()
	comm, err := cfg.Corpus()
	ph.read = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: recovery exhausted, corpus rebuild failed: %w", err)
	}
	t = time.Now()
	eng, err := engine.New(comm, cfg.Options.ForTaxonomy(comm.Taxonomy() != nil), cfg.Engine)
	ph.restore = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: recovery exhausted, corpus rebuild failed: %w", err)
	}
	return finish(res, eng, 3, "corpus", eng.Epoch(), 0, "", start, ph)
}

// phases splits the rung that served into its three steps: reading its
// source (the file; on rung 3 the corpus), decoding it (both decodes of a
// recompiled file; nothing on rung 3), and restoring the engine (on rung
// 3, compiling it).
type phases struct{ read, decode, restore time.Duration }

func finish(res *Result, eng *engine.Engine, rung int, source string, epoch, seq uint64, path string, start time.Time, ph phases) (*Result, error) {
	res.Engine = eng
	res.Rung = rung
	res.Source = source
	res.Epoch = epoch
	res.Seq = seq
	res.Path = path
	res.Load = time.Since(start)
	recoveriesStat.Add(1)
	sourceStats[source].Add(1)
	lastRung.Set(int64(rung))
	lastEpoch.Set(int64(epoch))
	lastSeq.Set(int64(seq))
	lastLoadMS.Set(res.Load.Milliseconds())
	lastReadUS.Set(ph.read.Microseconds())
	lastDecodeUS.Set(ph.decode.Microseconds())
	lastRestoreUS.Set(ph.restore.Microseconds())
	return res, nil
}
