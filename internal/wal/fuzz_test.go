package wal

// Fuzz target for what the WAL adds on top of the frame: a segment file
// is whatever a crash, a failing disk or an operator left in the
// directory, and Open walks every record of it before the server answers
// anything. The frame scan has its own target (internal/frame FuzzScan);
// here each input is one record payload, framed with a valid checksum so
// the fuzzer reaches the sequence number and decodeMutation directly. Run
// with
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

	"swrec/internal/frame"
)

// fuzzPayloads returns the record payloads of a real log, one per op.
func fuzzPayloads(f *testing.F) [][]byte {
	f.Helper()
	dir := f.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := w.Append(muts(5, 0)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	if _, _, err := frame.Scan(bytes.NewReader(data), int64(len(data)), maxPayload, func(_ int64, p []byte) error {
		out = append(out, bytes.Clone(p))
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	return out
}

func FuzzScanSegment(f *testing.F) {
	f.Add([]byte{})
	for _, p := range fuzzPayloads(f) {
		f.Add(p)
		f.Add(p[:len(p)-1])
		flipped := bytes.Clone(p)
		flipped[len(p)/2] ^= 0x41
		f.Add(flipped)
	}
	// One file per fuzz worker process, rewritten for every input: a
	// directory per input would cost more than the walk under test.
	seg := segment{path: filepath.Join(f.TempDir(), segmentName(1)), firstSeq: 1}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The payload decoder on its own, on bytes no sequence number
		// shields.
		if _, _, err := decodeMutation(payload); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decodeMutation failed outside ErrCorrupt: %v", err)
		}

		rec := frame.Start(nil)
		rec = append(rec, payload...)
		frame.Seal(rec)
		if err := os.WriteFile(seg.path, rec, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Mutation
		lastSeq, good, err := walkSegment(seg, false, 0, func(seq uint64, m Mutation) error {
			got = append(got, m)
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("walk failed outside ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted: it is record 1, it fills the frame, and its mutation
		// encodes to bytes that decode to the same encoding again.
		if lastSeq != 1 || good != int64(len(rec)) || len(got) != 1 {
			t.Fatalf("accepted walk: seq %d, %d of %d bytes, %d records", lastSeq, good, len(rec), len(got))
		}
		enc, err := got[0].encode(nil)
		if err != nil {
			t.Fatalf("accepted mutation %+v does not encode: %v", got[0], err)
		}
		back, rest, err := decodeMutation(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded mutation does not decode: %v (%d left)", err, len(rest))
		}
		if again, _ := back.encode(nil); !bytes.Equal(again, enc) {
			t.Fatalf("mutation encoding unstable: %x then %x", enc, again)
		}
	})
}
