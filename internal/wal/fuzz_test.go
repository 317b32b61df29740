package wal

// Fuzz target for the segment decoder. A segment file is whatever a
// crash, a failing disk or an operator left in the directory, and Open
// scans every byte of it before the server answers anything — so the
// scan must never panic, and must call damage by its name. Run with
//
//	go test -fuzz FuzzScanSegment ./internal/wal
//
// In normal test runs only the seed corpus executes.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSegment returns the bytes of a real one-segment, 30-record log.
func fuzzSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := w.Append(muts(30, 0)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

func FuzzScanSegment(f *testing.F) {
	seg := fuzzSegment(f)
	f.Add(seg)
	f.Add([]byte{})
	for _, cut := range []int{1, frameHeader - 1, frameHeader, frameHeader + 3, len(seg) / 2, len(seg) - 1} {
		f.Add(seg[:cut])
	}
	for _, off := range []int{0, 4, frameHeader, frameHeader + 1, len(seg) / 3, len(seg) - 2} {
		flipped := bytes.Clone(seg)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}
	// One file per fuzz worker process, rewritten for every input: a
	// directory per input would cost more than the scan under test.
	path := filepath.Join(f.TempDir(), segmentName(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// As a non-final segment: intact, or ErrCorrupt.
		_, _, strictErr := scanSegment(path, 1, false)
		if strictErr != nil && !errors.Is(strictErr, ErrCorrupt) {
			t.Fatalf("strict scan failed outside ErrCorrupt: %v", strictErr)
		}
		// As the final segment a torn tail is repaired, not an error, and
		// what the repair keeps is an intact segment.
		lastSeq, good, err := scanSegment(path, 1, true)
		switch {
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("tolerant scan failed outside ErrCorrupt: %v", err)
		case err != nil && strictErr == nil:
			t.Fatalf("tolerant scan rejects (%v) a segment the strict scan accepts", err)
		case err == nil:
			if good < 0 || good > int64(len(data)) {
				t.Fatalf("good size %d outside the %d-byte file", good, len(data))
			}
			if err := os.Truncate(path, good); err != nil {
				t.Fatal(err)
			}
			seq, size, err := scanSegment(path, 1, false)
			if err != nil || seq != lastSeq || size != good {
				t.Fatalf("repaired prefix rescans to seq %d size %d err %v, want seq %d size %d", seq, size, err, lastSeq, good)
			}
		}

		// The payload decoder on its own: above, the record CRC shields it
		// from most mutations.
		if _, _, err := decodeMutation(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decodeMutation failed outside ErrCorrupt: %v", err)
		}
	})
}
