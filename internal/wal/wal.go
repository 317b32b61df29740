// Package wal implements the durable write path's append-only log: a
// directory of CRC32-protected segment files recording typed community
// mutations (trust/rating upserts and retractions, agent upserts) with
// monotonically increasing sequence numbers.
//
// The paper's agents continually publish new statements ("tailored
// crawlers ... ensure data freshness", §4.1); the serving stack applies
// them in batches via epoch snapshot swaps (internal/ingest). The WAL is
// what makes those mutations durable before they are applied: a write is
// acknowledged only after its batch has been appended and fsynced, so a
// crash between acknowledgment and the next snapshot swap loses nothing —
// on restart, records above the last checkpoint are replayed.
//
// Format: a segment is a run of internal/frame frames, each payload a
// uvarint sequence number followed by one mutation's wire form.
//
// Failure model (internal/frame's, shared with internal/store): a record
// is trusted only if its CRC32 checks out; on Open, a torn tail of the
// *last* segment (a partial final record, e.g. after a crash mid-append)
// is detected and truncated away, recovering every record before it.
// Corruption anywhere else — a failed checksum mid-segment, or a damaged
// non-final segment — is an error, never silently skipped.
//
// Layout:
//
//	<dir>/wal-<firstseq>.log   segment files, rotated at SegmentBytes
//
// TruncateBefore removes whole segments made redundant by a checkpoint
// (internal/checkpoint keeps those, and with them the epoch↔sequence
// record, in <dir>/checkpoints).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"swrec/internal/frame"
	"swrec/internal/model"
)

var (
	// ErrClosed is returned by operations on a closed WAL.
	ErrClosed = errors.New("wal: closed")
	// ErrCorrupt is frame.ErrCorrupt: a record that fails its CRC or
	// bound checks anywhere except the tail of the last segment.
	ErrCorrupt = frame.ErrCorrupt
	// ErrBadMutation is returned when appending a mutation that cannot be
	// encoded (unknown op).
	ErrBadMutation = errors.New("wal: bad mutation")
	// ErrPoisoned is returned by Append after a group commit has failed:
	// once a write or fsync error leaves durability in doubt, no further
	// appends are acknowledged — acknowledging them would break the
	// contract that every acked record survives a crash. The WAL must be
	// reopened (re-scanning the segments) to resume writing.
	ErrPoisoned = errors.New("wal: poisoned by failed group commit")
)

// Op enumerates the mutation types the log can carry.
type Op uint8

const (
	// OpUpsertTrust records t_src(dst) = v.
	OpUpsertTrust Op = iota + 1
	// OpDeleteTrust retracts t_src(dst).
	OpDeleteTrust
	// OpUpsertRating records r_agent(product) = v.
	OpUpsertRating
	// OpDeleteRating retracts r_agent(product).
	OpDeleteRating
	// OpUpsertAgent materializes an agent (optionally naming it).
	OpUpsertAgent

	opMax = OpUpsertAgent
)

// String names the op for logs and errors.
func (op Op) String() string {
	switch op {
	case OpUpsertTrust:
		return "upsert-trust"
	case OpDeleteTrust:
		return "delete-trust"
	case OpUpsertRating:
		return "upsert-rating"
	case OpDeleteRating:
		return "delete-rating"
	case OpUpsertAgent:
		return "upsert-agent"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Mutation is one typed community mutation. Field use by op:
//
//	OpUpsertTrust:  Agent (source), Peer (target), Value
//	OpDeleteTrust:  Agent (source), Peer (target)
//	OpUpsertRating: Agent, Product, Value
//	OpDeleteRating: Agent, Product
//	OpUpsertAgent:  Agent, Name (optional display name)
type Mutation struct {
	Op      Op
	Agent   model.AgentID
	Peer    model.AgentID
	Product model.ProductID
	Value   float64
	Name    string
}

// maxFieldLen bounds each string field; URIs and names beyond this are
// garbage, and the bound keeps decode allocations sane.
const maxFieldLen = 64 << 10

// maxPayload bounds a record's payload: a sequence number and the largest
// mutation.
const maxPayload = 1 + binary.MaxVarintLen64 + 4*(binary.MaxVarintLen32+maxFieldLen) + 8

// encode appends the mutation's wire form (op + fields) to buf.
func (m Mutation) encode(buf []byte) ([]byte, error) {
	if m.Op == 0 || m.Op > opMax {
		return nil, fmt.Errorf("%w: %v", ErrBadMutation, m.Op)
	}
	if len(m.Agent) > maxFieldLen || len(m.Peer) > maxFieldLen ||
		len(m.Product) > maxFieldLen || len(m.Name) > maxFieldLen {
		return nil, fmt.Errorf("%w: field too large", ErrBadMutation)
	}
	buf = append(buf, byte(m.Op))
	putStr := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	putStr(string(m.Agent))
	switch m.Op {
	case OpUpsertTrust:
		putStr(string(m.Peer))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Value))
	case OpDeleteTrust:
		putStr(string(m.Peer))
	case OpUpsertRating:
		putStr(string(m.Product))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Value))
	case OpDeleteRating:
		putStr(string(m.Product))
	case OpUpsertAgent:
		putStr(m.Name)
	}
	return buf, nil
}

// decodeMutation parses one mutation from b, returning the remainder.
func decodeMutation(b []byte) (Mutation, []byte, error) {
	var m Mutation
	if len(b) < 1 {
		return m, nil, fmt.Errorf("%w: empty mutation", ErrCorrupt)
	}
	m.Op = Op(b[0])
	if m.Op == 0 || m.Op > opMax {
		return m, nil, fmt.Errorf("%w: unknown op %d", ErrCorrupt, b[0])
	}
	b = b[1:]
	getStr := func() (string, error) {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > maxFieldLen || uint64(len(b)-k) < n {
			return "", fmt.Errorf("%w: bad string field", ErrCorrupt)
		}
		s := string(b[k : k+int(n)])
		b = b[k+int(n):]
		return s, nil
	}
	getF64 := func() (float64, error) {
		if len(b) < 8 {
			return 0, fmt.Errorf("%w: truncated value", ErrCorrupt)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v, nil
	}
	var err error
	var s string
	if s, err = getStr(); err != nil {
		return m, nil, err
	}
	m.Agent = model.AgentID(s)
	switch m.Op {
	case OpUpsertTrust, OpDeleteTrust:
		if s, err = getStr(); err != nil {
			return m, nil, err
		}
		m.Peer = model.AgentID(s)
		if m.Op == OpUpsertTrust {
			if m.Value, err = getF64(); err != nil {
				return m, nil, err
			}
		}
	case OpUpsertRating, OpDeleteRating:
		if s, err = getStr(); err != nil {
			return m, nil, err
		}
		m.Product = model.ProductID(s)
		if m.Op == OpUpsertRating {
			if m.Value, err = getF64(); err != nil {
				return m, nil, err
			}
		}
	case OpUpsertAgent:
		if m.Name, err = getStr(); err != nil {
			return m, nil, err
		}
	}
	return m, b, nil
}

// File is frame.File, the handle both logs append through, named here
// for callers that wrap the WAL's segments.
type File = frame.File

// Options configure a WAL.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// NoSync skips fsync after appends. Only for tests and benchmarks:
	// it voids the durability guarantee.
	NoSync bool
	// WrapFile, when set, wraps each active segment file as it is opened —
	// the fault-injection seam. Nil uses the raw *os.File. The read path
	// (Replay, Open scans) is never wrapped.
	WrapFile func(*os.File) File
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// segment is one immutable (or active) log file.
type segment struct {
	path     string
	firstSeq uint64 // sequence number of its first record
}

// segmentName formats the file name for a segment starting at seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

// parseSegmentName extracts the first sequence number, reporting ok=false
// for unrelated files.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[4:len(name)-4], 16, 64)
	return seq, err == nil
}

// OldestSeq reports the first sequence number of the oldest retained
// segment in dir, without opening the log: the recovery ladder's
// coverage probe — a checkpoint at sequence S is replayable only when
// the retained WAL still starts at or before S+1. ok is false when the
// directory holds no segments (an empty or missing log covers any
// starting point).
func OldestSeq(dir string) (seq uint64, ok bool, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("wal: read dir %s: %w", dir, err)
	}
	for _, e := range entries {
		if s, isSeg := parseSegmentName(e.Name()); isSeg && (!ok || s < seq) {
			seq, ok = s, true
		}
	}
	return seq, ok, nil
}

// WAL is an append-only mutation log over a directory of segments. All
// methods are safe for concurrent use; appends are serialized.
type WAL struct {
	mu       sync.Mutex
	dir      string
	opt      Options
	segments []segment   // sorted by firstSeq; last is active
	active   *frame.Tail // the last segment, holding only acked records
	nextSeq  uint64      // sequence number the next record receives
	appended uint64      // records appended in this process, for Stats
	poisoned bool        // a group commit failed; no further appends acked
	closed   bool
}

// Open opens (creating if necessary) the WAL directory, scans all
// segments to find the next sequence number, and repairs a torn tail on
// the last segment.
func Open(dir string, opt Options) (*WAL, error) { return OpenReplay(dir, opt, 0, nil) }

// OpenReplay is Open that also replays: the one walk that checks every
// record hands those with seq >= from to fn, in sequence order, before
// the log is ready for appends. fn returning an error aborts the open
// with that error. A restart reads its tail this way instead of walking
// the log a second time through Replay.
func OpenReplay(dir string, opt Options, from uint64, fn func(seq uint64, m Mutation) error) (*WAL, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir %s: %w", dir, err)
	}
	w := &WAL{dir: dir, opt: opt, nextSeq: 1}
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			w.segments = append(w.segments, segment{path: filepath.Join(dir, e.Name()), firstSeq: seq})
		}
	}
	sort.Slice(w.segments, func(i, j int) bool { return w.segments[i].firstSeq < w.segments[j].firstSeq })

	var good int64
	for i, seg := range w.segments {
		lastSeq, size, err := walkSegment(seg, i == len(w.segments)-1, from, fn)
		if err != nil {
			return nil, err
		}
		if lastSeq >= w.nextSeq {
			w.nextSeq = lastSeq + 1
		}
		good = size
	}
	if len(w.segments) == 0 {
		if err := w.rotateLocked(); err != nil {
			return nil, err
		}
		return w, nil
	}
	f, err := os.OpenFile(w.segments[len(w.segments)-1].path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	// Cut the torn tail the walk stopped at, so appends land right after
	// the last good record.
	if w.active, err = frame.NewTail(f, opt.WrapFile, good); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return w, nil
}

// walkSegment checks every record of seg in order — its frame, its
// sequence number (contiguous from seg.firstSeq), its mutation and that
// nothing trails the mutation — and hands those with seq >= from to fn
// (nil: check only). A torn tail is tolerated on the last segment alone,
// where the walk stops at the tear: anywhere else records after it
// depend on the lost ones, so it is corruption. Returns the last sequence
// number read (firstSeq-1 for an empty segment) and the byte size of the
// intact prefix.
func walkSegment(seg segment, last bool, from uint64, fn func(uint64, Mutation) error) (lastSeq uint64, good int64, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close() //nolint:durableerr -- read-only walk; no acked bytes ride on this close
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: stat segment: %w", err)
	}
	want := seg.firstSeq
	good, torn, err := frame.Scan(f, info.Size(), maxPayload, func(off int64, payload []byte) error {
		seq, k := binary.Uvarint(payload)
		if k <= 0 || seq != want {
			return fmt.Errorf("%w: record at offset %d is not seq %d", ErrCorrupt, off, want)
		}
		m, rest, err := decodeMutation(payload[k:])
		if err != nil {
			return fmt.Errorf("record at offset %d: %w", off, err)
		}
		if len(rest) != 0 {
			return fmt.Errorf("%w: %d trailing payload bytes at offset %d", ErrCorrupt, len(rest), off)
		}
		want++
		if fn == nil || seq < from {
			return nil
		}
		return fn(seq, m)
	})
	if err == nil && torn && !last {
		err = fmt.Errorf("%w: torn record in non-final segment at offset %d", ErrCorrupt, good)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: segment %s: %w", seg.path, err)
	}
	return want - 1, good, nil
}

// rotateLocked opens a fresh segment named by the next sequence number.
// Caller holds w.mu (or is initializing).
func (w *WAL) rotateLocked() error {
	if w.active != nil {
		if err := w.active.Close(true); err != nil {
			return fmt.Errorf("wal: close before rotate: %w", err)
		}
	}
	seg := segment{path: filepath.Join(w.dir, segmentName(w.nextSeq)), firstSeq: w.nextSeq}
	f, err := os.OpenFile(seg.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	active, err := frame.NewTail(f, w.opt.WrapFile, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.segments = append(w.segments, seg)
	w.active = active
	frame.SyncDir(w.dir)
	return nil
}

// Append durably writes the batch: every mutation becomes one record with
// a consecutive sequence number, the whole batch is written with a single
// write call and (unless NoSync) a single fsync — the group-commit that
// makes per-mutation durability affordable. Returns the first and last
// sequence numbers assigned. An empty batch is a no-op.
func (w *WAL) Append(muts []Mutation) (first, last uint64, err error) {
	if len(muts) == 0 {
		return 0, 0, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, 0, ErrClosed
	}
	if w.poisoned {
		return 0, 0, ErrPoisoned
	}
	if w.active.Size() >= w.opt.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			// The sync-and-close of the outgoing segment failed, so even
			// previously acked records are of uncertain durability.
			w.poisoned = true
			return 0, 0, err
		}
	}
	first = w.nextSeq
	buf := make([]byte, 0, 64*len(muts))
	for i, m := range muts {
		start := len(buf)
		buf = frame.Start(buf)
		buf = binary.AppendUvarint(buf, w.nextSeq+uint64(i))
		if buf, err = m.encode(buf); err != nil {
			return 0, 0, err
		}
		frame.Seal(buf[start:])
	}
	// On a failed write or fsync the tail cuts the segment back to the
	// last acked record, so a later Replay sees exactly the acked set. The
	// kernel may have flushed any prefix of the batch, or nothing, so even
	// the acked records' durability is in doubt: the log is poisoned.
	if err := w.active.Append(buf, !w.opt.NoSync); err != nil {
		w.poisoned = true
		return 0, 0, fmt.Errorf("wal: append: %w", err)
	}
	w.nextSeq += uint64(len(muts))
	w.appended += uint64(len(muts))
	return first, w.nextSeq - 1, nil
}

// StartAfter makes seq+1 the next sequence number of a log that ends at
// or before seq — one whose segments went missing under a checkpoint
// that covers seq — in a segment named for it, so no record is ever
// numbered into the range the checkpoint covers (a replay from seq+1
// would skip it). An empty active segment is renamed rather than left
// behind, where it would make OldestSeq report a log reaching back
// further than its records do. A log that already extends past seq is
// untouched.
func (w *WAL) StartAfter(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.nextSeq > seq {
		return nil
	}
	if w.active.Size() > 0 {
		w.nextSeq = seq + 1
		if err := w.rotateLocked(); err != nil {
			w.poisoned = true // as in Append
			return err
		}
		return nil
	}
	active := &w.segments[len(w.segments)-1]
	path := filepath.Join(w.dir, segmentName(seq+1))
	if err := os.Rename(active.path, path); err != nil {
		return fmt.Errorf("wal: rename empty segment: %w", err)
	}
	*active = segment{path: path, firstSeq: seq + 1}
	w.nextSeq = seq + 1
	frame.SyncDir(w.dir)
	return nil
}

// NextSeq returns the sequence number the next appended record receives.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// Replay calls fn for every record with seq >= from, in sequence order.
// fn returning an error aborts the replay with that error. An appended
// record is in the file when Append returns, so the scan sees it without
// a sync.
func (w *WAL) Replay(from uint64, fn func(seq uint64, m Mutation) error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	segs := append([]segment(nil), w.segments...)
	w.mu.Unlock()

	for i, seg := range segs {
		// Skip segments wholly below the replay point.
		if i+1 < len(segs) && segs[i+1].firstSeq <= from {
			continue
		}
		if _, _, err := walkSegment(seg, i == len(segs)-1, from, fn); err != nil {
			return err
		}
	}
	return nil
}

// TruncateBefore removes whole segments whose records all have seq < seq
// — the space reclamation after a checkpoint has made those records
// redundant. The active segment is never removed. Returns the number of
// segments deleted. It may run alongside Append: the segments leave the
// log's list under the lock, the unlinks and the directory fsync happen
// outside it, so a truncation never stalls a group commit. A segment
// whose unlink fails is no longer listed but still on disk; the next
// Open lists it again and a later truncation retries.
func (w *WAL) TruncateBefore(seq uint64) (int, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	n := 0
	for n+1 < len(w.segments) && w.segments[n+1].firstSeq <= seq {
		n++
	}
	drop := w.segments[:n:n]
	w.segments = w.segments[n:]
	w.mu.Unlock()

	// Oldest first, stopping at the first failure, so what stays on disk
	// is always a contiguous log.
	for i, seg := range drop {
		if err := os.Remove(seg.path); err != nil {
			return i, fmt.Errorf("wal: remove segment: %w", err)
		}
	}
	if n > 0 {
		frame.SyncDir(w.dir)
	}
	return n, nil
}

// Stats describes the WAL's physical state.
type Stats struct {
	Segments    int    // segment files on disk
	NextSeq     uint64 // sequence number of the next record
	Appended    uint64 // records appended by this process
	ActiveBytes int64  // size of the active segment
	Poisoned    bool   // a group commit failed; appends are refused
}

// Stats returns current statistics.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{Segments: len(w.segments), NextSeq: w.nextSeq, Appended: w.appended, ActiveBytes: w.active.Size(), Poisoned: w.poisoned}
}

// Close syncs and releases the WAL. Further operations return ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	// A poisoned log is already rolled back to the acked set and its
	// sync path is broken, so it just releases the handle.
	if err := w.active.Close(!w.poisoned); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}
