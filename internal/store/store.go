// Package store implements the crawler's local document cache: an
// embedded, append-only log-structured key-value store in the bitcask
// tradition — every Put appends one record to a single data file and
// updates an in-memory hash index mapping key → file offset.
//
// The paper's architecture makes every agent materialize remote Semantic
// Web documents locally before "all recommendation computations [are
// performed] locally for one given user" (§2); this store is that
// materialization layer. "Tailored crawlers search the Web for weblogs and
// ensure data freshness" (§4.1) by overwriting records, so the log
// accumulates dead versions; Compact rewrites the live set and atomically
// swaps the file.
//
// Format: a record is one internal/frame frame — the WAL's — whose payload
// is flags | uvarint keyLen | key | value. A file written in the cache's
// earlier format (its own header ahead of the key) fails Open with
// ErrCorrupt at offset 0; delete it, and the crawler re-fetches.
//
// Durability and failure model: records are only trusted if their CRC32
// checks out; on Open, a torn tail (partial final record, e.g. after a
// crash) is detected and truncated away, recovering every record before
// it. A Put whose write fails is cut back off the file, so the records
// after it are never stranded behind a torn one.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"swrec/internal/frame"
)

var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrCorrupt is frame.ErrCorrupt: a record that fails its CRC or
	// length checks in the middle of the log (a torn *tail* is repaired
	// silently).
	ErrCorrupt = frame.ErrCorrupt
	// ErrKeyTooLarge is returned for keys above 64 KiB.
	ErrKeyTooLarge = errors.New("store: key too large")
	// ErrValueTooLarge is returned for values above 16 MiB, the crawler's
	// document cap.
	ErrValueTooLarge = errors.New("store: value too large")
)

const (
	maxKeyLen   = 64 << 10
	maxValueLen = 16 << 20
	// maxPayload bounds a record frame's payload. Kept under 32 MiB, it
	// also reads the first header of an earlier-format file whose first
	// key is 1–127 printable bytes as a length over the bound, so such a
	// file is ErrCorrupt rather than one torn record.
	maxPayload = 1 + binary.MaxVarintLen32 + maxKeyLen + maxValueLen

	flagTombstone = 1
)

// Options configure a Store.
type Options struct {
	// SyncEveryPut fsyncs after every append. Slow but safest; off by
	// default (the crawler can always re-fetch).
	SyncEveryPut bool
	// WrapFile, when set, wraps the data file (and Compact's temp file) as
	// it is opened — the fault-injection seam. Nil uses the raw *os.File.
	WrapFile func(*os.File) frame.File
}

// indexEntry locates the current version of one key in the data file.
type indexEntry struct {
	offset int64
	size   int64 // full record size in bytes
}

// Store is a single-file append-only document store. All methods are safe
// for concurrent use.
type Store struct {
	mu     sync.RWMutex
	path   string
	tail   *frame.Tail
	opt    Options
	index  map[string]indexEntry
	dead   int64 // bytes belonging to overwritten/deleted records
	closed bool
}

// Open opens (creating if necessary) the store at path and rebuilds the
// index by scanning the log. A torn final record is truncated away, and
// a temp file orphaned by a crash mid-Compact is removed: it was never
// renamed into place, so the main log is still the authoritative copy.
func Open(path string, opt Options) (*Store, error) {
	if err := os.Remove(path + ".compact"); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: remove orphaned compact temp: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: stat: %w", errors.Join(err, f.Close()))
	}
	s := &Store{path: path, opt: opt, index: make(map[string]indexEntry)}
	good, _, err := frame.Scan(f, info.Size(), maxPayload, func(off int64, payload []byte) error {
		flags, key, _, err := decode(payload)
		if err != nil {
			return fmt.Errorf("%w at offset %d", err, off)
		}
		recLen := frame.HeaderSize + int64(len(payload))
		if prev, ok := s.index[string(key)]; ok {
			s.dead += prev.size
		}
		if flags&flagTombstone != 0 {
			delete(s.index, string(key))
			s.dead += recLen
		} else {
			s.index[string(key)] = indexEntry{offset: off, size: recLen}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, errors.Join(err, f.Close()))
	}
	// A torn tail past good is cut off here.
	if s.tail, err = frame.NewTail(f, opt.WrapFile, good); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// decode splits a record payload into its flags, key and value.
func decode(payload []byte) (flags byte, key, value []byte, err error) {
	if len(payload) == 0 {
		return 0, nil, nil, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	n, k := binary.Uvarint(payload[1:])
	if k <= 0 || n > maxKeyLen || n > uint64(len(payload)-1-k) {
		return 0, nil, nil, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	body := payload[1+k:]
	return payload[0], body[:n], body[n:], nil
}

// appendRecord writes one record at tail and returns where it landed.
func appendRecord(tail *frame.Tail, key string, value []byte, flags byte, sync bool) (indexEntry, error) {
	rec := frame.Start(make([]byte, 0, frame.HeaderSize+1+binary.MaxVarintLen32+len(key)+len(value)))
	rec = append(rec, flags)
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = append(rec, key...)
	rec = append(rec, value...)
	frame.Seal(rec)
	e := indexEntry{offset: tail.Size(), size: int64(len(rec))}
	if err := tail.Append(rec, sync); err != nil {
		return e, fmt.Errorf("store: append: %w", err)
	}
	return e, nil
}

// Put stores value under key, replacing any previous version.
func (s *Store) Put(key string, value []byte) error {
	if len(key) > maxKeyLen {
		return ErrKeyTooLarge
	}
	if len(value) > maxValueLen {
		return ErrValueTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, err := appendRecord(s.tail, key, value, 0, s.opt.SyncEveryPut)
	if err != nil {
		return err
	}
	if prev, ok := s.index[key]; ok {
		s.dead += prev.size
	}
	s.index[key] = e
	return nil
}

// Get returns the current value of key; ok is false if absent or deleted.
func (s *Store) Get(key string) (value []byte, ok bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	e, found := s.index[key]
	if !found {
		return nil, false, nil
	}
	v, err := s.read(e)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// read returns the value of the live record at e. Caller holds s.mu.
func (s *Store) read(e indexEntry) ([]byte, error) {
	payload, err := s.tail.ReadFrame(e.offset, e.size)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	_, _, v, err := decode(payload)
	return v, err
}

// Delete removes key by appending a tombstone. Deleting an absent key is
// a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, found := s.index[key]
	if !found {
		return nil
	}
	tomb, err := appendRecord(s.tail, key, nil, flagTombstone, s.opt.SyncEveryPut)
	if err != nil {
		return err
	}
	s.dead += e.size + tomb.size
	delete(s.index, key)
	return nil
}

// Has reports whether key currently has a live value.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok && !s.closed
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Keys returns all live keys, sorted.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats describes the store's physical state.
type Stats struct {
	LiveKeys  int
	FileBytes int64
	DeadBytes int64 // bytes reclaimable by Compact
}

// Stats returns current statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{LiveKeys: len(s.index), FileBytes: s.tail.Size(), DeadBytes: s.dead}
}

// Compact rewrites only the live records into a fresh file and atomically
// replaces the log. Concurrent readers are blocked for the duration.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tmpPath := s.path + ".compact"
	raw, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after successful rename
	tmp, err := frame.NewTail(raw, s.opt.WrapFile, 0)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}

	// Deterministic order keeps compacted files byte-identical for
	// identical logical content.
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	newIndex := make(map[string]indexEntry, len(keys))
	for _, k := range keys {
		v, err := s.read(s.index[k])
		if err != nil {
			return fmt.Errorf("store: compact read %q: %w", k, errors.Join(err, tmp.Close(false)))
		}
		if newIndex[k], err = appendRecord(tmp, k, v, 0, false); err != nil {
			return errors.Join(err, tmp.Close(false))
		}
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: compact sync: %w", errors.Join(err, tmp.Close(false)))
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return fmt.Errorf("store: compact rename: %w", errors.Join(err, tmp.Close(false)))
	}
	old := s.tail
	s.tail = tmp
	s.index = newIndex
	s.dead = 0
	if err := old.Close(false); err != nil {
		return fmt.Errorf("store: compact close pre-compact file: %w", err)
	}
	return nil
}

// Close releases the store. Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.tail.Close(true); err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}
