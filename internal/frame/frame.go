// Package frame owns the one record format under both append-only logs,
// the crawler's document cache (internal/store) and the write-ahead log
// (internal/wal):
//
//	u32 crc32(payload) | u32 len(payload) | payload     (little-endian)
//
// What a payload means is the caller's business. Scan names how a file
// of frames ends; Tail appends so that only whole, acknowledged frames
// ever stand in front of the next append.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrCorrupt marks a frame that fails its checksum or length bound, or a
// payload its log cannot parse. Both logs return it as their own
// ErrCorrupt.
var ErrCorrupt = errors.New("corrupt record")

// HeaderSize is the length of a frame header: checksum and payload length.
const HeaderSize = 8

// Start appends room for a frame header to buf. The caller appends the
// payload after it and then Seals buf[start:], start being len(buf) before
// the call.
func Start(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Seal writes the header of frame, a Start header followed by the whole
// payload.
func Seal(frame []byte) {
	payload := frame[HeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
}

// Scan calls fn with the offset and payload of each frame of r, a file of
// size bytes, in order; the payload is only valid during the call. good is
// the offset just past the last frame fn accepted. The scan is intact (err
// nil, torn false, good == size), torn (the file ends inside the frame at
// good: a crash mid-append) or stopped by an error: ErrCorrupt for a frame
// at good whose length exceeds max or whose checksum fails, a failed read,
// or fn's error as is. A length is trusted only as far as the bytes left
// in the file, so a hostile one cannot make the scan allocate more.
func Scan(r io.ReaderAt, size int64, max uint32, fn func(off int64, payload []byte) error) (good int64, torn bool, err error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, 0, size), 64<<10)
	var hdr [HeaderSize]byte
	var payload []byte
	for good < size {
		if size-good < HeaderSize {
			return good, true, nil
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return good, false, fmt.Errorf("frame: read header at offset %d: %w", good, err)
		}
		n := binary.LittleEndian.Uint32(hdr[4:8])
		if n > max {
			return good, false, fmt.Errorf("%w: length %d over %d at offset %d", ErrCorrupt, n, max, good)
		}
		if int64(n) > size-good-HeaderSize {
			return good, true, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, false, fmt.Errorf("frame: read payload at offset %d: %w", good, err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[0:4]) {
			return good, false, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, good)
		}
		if err := fn(good, payload); err != nil {
			return good, false, err
		}
		good += HeaderSize + int64(n)
	}
	return good, false, nil
}

// File is the handle a log reads and appends through. *os.File satisfies
// it; the indirection lets tests interpose fault-injecting wrappers
// (internal/faultinject) on the I/O path.
type File interface {
	io.ReaderAt
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Tail is a log file positioned for appends: its first Size bytes are
// whole frames, and the next Append writes right after them.
type Tail struct {
	f    File
	size int64
	// lost is set when cutting a failed append back off failed too: where
	// the file ends is then unknown, and every later Append returns it.
	lost error
}

// NewTail takes over f, a log whose first size bytes are whole frames,
// passes it through wrap (the fault-injection seam; nil keeps the bare
// *os.File) and cuts off whatever follows those frames: a torn append, or
// one that was never acknowledged. On error f is closed.
func NewTail(f *os.File, wrap func(*os.File) File, size int64) (*Tail, error) {
	t := &Tail{f: f, size: size}
	if wrap != nil {
		t.f = wrap(f)
	}
	if err := t.rewind(); err != nil {
		return nil, fmt.Errorf("frame: cut tail at %d: %w", size, errors.Join(err, t.f.Close()))
	}
	return t, nil
}

// rewind truncates the file to the last whole frame and moves the write
// position there.
func (t *Tail) rewind() error {
	if err := t.f.Truncate(t.size); err != nil {
		return err
	}
	_, err := t.f.Seek(t.size, io.SeekStart)
	return err
}

// Size returns the length of the file's whole frames.
func (t *Tail) Size() int64 { return t.size }

// Append writes frames, one or more sealed frames, at the tail and, when
// sync is set, fsyncs them. If the write or the fsync fails the file is
// cut back to where the append began, so a torn prefix never stands in
// front of the next append and an unacknowledged frame never outlives the
// error that refused it.
func (t *Tail) Append(frames []byte, sync bool) error {
	if t.lost != nil {
		return t.lost
	}
	_, err := t.f.Write(frames)
	if err != nil {
		err = fmt.Errorf("write: %w", err)
	} else if sync {
		if err = t.f.Sync(); err != nil {
			err = fmt.Errorf("sync: %w", err)
		}
	}
	if err != nil {
		if rerr := t.rewind(); rerr != nil {
			t.lost = fmt.Errorf("frame: tail unknown after a failed append: %w", rerr)
			return errors.Join(err, t.lost)
		}
		return err
	}
	t.size += int64(len(frames))
	return nil
}

// ReadFrame reads back the n-byte frame at off, an offset and length a Scan
// or an Append reported, and returns its payload once its length and
// checksum check out again.
func (t *Tail) ReadFrame(off, n int64) ([]byte, error) {
	if off < 0 || n < HeaderSize || n > t.size-off {
		return nil, fmt.Errorf("%w: frame [%d, +%d) outside the %d-byte log", ErrCorrupt, off, n, t.size)
	}
	buf := make([]byte, n)
	if _, err := t.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("frame: read at offset %d: %w", off, err)
	}
	payload := buf[HeaderSize:]
	if int64(binary.LittleEndian.Uint32(buf[4:8])) != n-HeaderSize ||
		crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[0:4]) {
		return nil, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
	}
	return payload, nil
}

// Sync fsyncs the file.
func (t *Tail) Sync() error { return t.f.Sync() }

// Close releases the file, fsyncing it first when sync is set.
func (t *Tail) Close(sync bool) error {
	if sync {
		if err := t.f.Sync(); err != nil {
			return fmt.Errorf("sync: %w", errors.Join(err, t.f.Close()))
		}
	}
	return t.f.Close()
}

// SyncDir best-effort fsyncs dir so that a file created, renamed or
// removed in it stays that way across a crash.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()  //nolint:durableerr -- directory fsync is best-effort: POSIX gives no portable guarantee, and the file bytes themselves are already synced
		_ = d.Close() //nolint:durableerr -- read-only directory handle; no acked bytes ride on this close
	}
}
