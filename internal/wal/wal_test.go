package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"swrec/internal/frame"
	"swrec/internal/model"
)

func ag(s string) model.AgentID   { return model.AgentID(s) }
func pr(s string) model.ProductID { return model.ProductID(s) }

func openWAL(t *testing.T, dir string, opt Options) *WAL {
	t.Helper()
	w, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// muts fabricates n distinct mutations cycling through every op.
func muts(n, base int) []Mutation {
	out := make([]Mutation, n)
	for i := range out {
		a := fmt.Sprintf("http://x/a%d", base+i)
		b := fmt.Sprintf("http://x/b%d", base+i)
		p := fmt.Sprintf("urn:isbn:%d", base+i)
		switch i % 5 {
		case 0:
			out[i] = Mutation{Op: OpUpsertTrust, Agent: ag(a), Peer: ag(b), Value: 0.5}
		case 1:
			out[i] = Mutation{Op: OpDeleteTrust, Agent: ag(a), Peer: ag(b)}
		case 2:
			out[i] = Mutation{Op: OpUpsertRating, Agent: ag(a), Product: pr(p), Value: -0.75}
		case 3:
			out[i] = Mutation{Op: OpDeleteRating, Agent: ag(a), Product: pr(p)}
		case 4:
			out[i] = Mutation{Op: OpUpsertAgent, Agent: ag(a), Name: "Agent " + a}
		}
	}
	return out
}

func collect(t *testing.T, w *WAL, from uint64) (seqs []uint64, all []Mutation) {
	t.Helper()
	if err := w.Replay(from, func(seq uint64, m Mutation) error {
		seqs = append(seqs, seq)
		all = append(all, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return seqs, all
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, Options{})
	batch := muts(7, 0)
	first, last, err := w.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || last != 7 {
		t.Fatalf("seqs = [%d,%d], want [1,7]", first, last)
	}
	seqs, got := collect(t, w, 1)
	if len(got) != 7 {
		t.Fatalf("replayed %d records, want 7", len(got))
	}
	for i := range got {
		if seqs[i] != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, seqs[i])
		}
		if got[i] != batch[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], batch[i])
		}
	}
	// Replay from the middle.
	seqs, _ = collect(t, w, 5)
	if len(seqs) != 3 || seqs[0] != 5 {
		t.Fatalf("partial replay = %v", seqs)
	}
	// Empty batch is a no-op.
	if _, _, err := w.Append(nil); err != nil {
		t.Fatal(err)
	}
	if w.NextSeq() != 8 {
		t.Fatalf("NextSeq = %d, want 8", w.NextSeq())
	}
}

func TestSequencePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, Options{})
	if _, _, err := w.Append(muts(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir, Options{})
	if w2.NextSeq() != 6 {
		t.Fatalf("NextSeq after reopen = %d, want 6", w2.NextSeq())
	}
	first, last, err := w2.Append(muts(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if first != 6 || last != 7 {
		t.Fatalf("seqs after reopen = [%d,%d], want [6,7]", first, last)
	}
	seqs, _ := collect(t, w2, 1)
	if len(seqs) != 7 {
		t.Fatalf("replayed %d records, want 7", len(seqs))
	}
}

// TestStartAfter: a log that ends before a checkpoint's seq resumes
// numbering just past it — an empty log by renaming its empty segment,
// one holding records by rotating — a log already past it is left alone,
// and the numbering survives a reopen.
func TestStartAfter(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, Options{})
	if err := w.StartAfter(30); err != nil {
		t.Fatal(err)
	}
	if oldest, _, err := OldestSeq(dir); err != nil || oldest != 31 {
		t.Fatalf("empty log starts at seq %d (err %v), want 31", oldest, err)
	}
	if first, _, err := w.Append(muts(1, 0)); err != nil || first != 31 {
		t.Fatalf("first record after StartAfter(30) is seq %d (err %v), want 31", first, err)
	}

	dir = t.TempDir()
	w = openWAL(t, dir, Options{})
	if _, _, err := w.Append(muts(3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.StartAfter(10); err != nil {
		t.Fatal(err)
	}
	if err := w.StartAfter(5); err != nil || w.NextSeq() != 11 {
		t.Fatalf("StartAfter below the log's end moved NextSeq to %d (err %v), want 11", w.NextSeq(), err)
	}
	if first, last, err := w.Append(muts(2, 3)); err != nil || first != 11 || last != 12 {
		t.Fatalf("seqs = [%d,%d] (err %v), want [11,12]", first, last, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = openWAL(t, dir, Options{})
	if w.NextSeq() != 13 {
		t.Fatalf("NextSeq after reopen = %d, want 13", w.NextSeq())
	}
	if seqs, _ := collect(t, w, 1); fmt.Sprint(seqs) != "[1 2 3 11 12]" {
		t.Fatalf("replayed seqs %v, want [1 2 3 11 12]", seqs)
	}
}

func TestTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, Options{})
	if _, _, err := w.Append(muts(3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: chop bytes off the active segment.
	path := filepath.Join(dir, segmentName(1))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("torn tail must be repaired, got %v", err)
	}
	defer w2.Close()
	if w2.NextSeq() != 3 {
		t.Fatalf("NextSeq after tear = %d, want 3 (record 3 torn away)", w2.NextSeq())
	}
	seqs, _ := collect(t, w2, 1)
	if len(seqs) != 2 {
		t.Fatalf("replay after tear = %v, want 2 records", seqs)
	}
	// The log must accept appends again, reusing the torn sequence number.
	first, _, err := w2.Append(muts(1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 {
		t.Fatalf("append after repair got seq %d, want 3", first)
	}
}

func TestCorruptMiddleDetected(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, Options{})
	if _, _, err := w.Append(muts(4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload.
	path := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, frame.HeaderSize+2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt middle = %v, want ErrCorrupt", err)
	}
}

// TestSegmentBytesPinned pins the segment format: two batches covering
// every op hash to what the log wrote before its framing moved into
// internal/frame, so a segment on disk replays across that change.
func TestSegmentBytesPinned(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, Options{NoSync: true})
	for _, batch := range [][]Mutation{muts(5, 0), muts(5, 5)} {
		if _, _, err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), "fa9094d5b99f58be7ace85c8414dc722efabbed6b7c770de1c37dc24b3d326d3"; len(data) != 380 || got != want {
		t.Fatalf("segment: %d bytes, sha256 %s; want 380 bytes, %s", len(data), got, want)
	}
}

func TestSegmentRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation on nearly every batch.
	w := openWAL(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 10; i++ {
		if _, _, err := w.Append(muts(3, i*3)); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("rotation produced only %d segments", st.Segments)
	}
	if st.NextSeq != 31 {
		t.Fatalf("NextSeq = %d, want 31", st.NextSeq)
	}
	// All 30 records must replay across segment boundaries.
	seqs, _ := collect(t, w, 1)
	if len(seqs) != 30 {
		t.Fatalf("replayed %d records, want 30", len(seqs))
	}

	// Checkpoint at seq 15: every segment wholly below survives only if
	// it still holds records > 15.
	removed, err := w.TruncateBefore(15)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("TruncateBefore removed nothing")
	}
	seqs, _ = collect(t, w, 16)
	if len(seqs) != 15 || seqs[0] != 16 || seqs[len(seqs)-1] != 30 {
		t.Fatalf("post-truncate replay = %v..%v (%d records)", seqs[0], seqs[len(seqs)-1], len(seqs))
	}
	// Reopen after truncation: sequence numbering continues.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir, Options{SegmentBytes: 128})
	if w2.NextSeq() != 31 {
		t.Fatalf("NextSeq after truncate+reopen = %d, want 31", w2.NextSeq())
	}
}

func TestTruncateNeverRemovesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, Options{})
	if _, _, err := w.Append(muts(5, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.TruncateBefore(1 << 60); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Segments != 1 {
		t.Fatalf("active segment removed: %d segments left", st.Segments)
	}
	// Still appendable and replayable.
	if _, _, err := w.Append(muts(1, 9)); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, w, 1)
	if len(seqs) != 6 {
		t.Fatalf("replay = %d records, want 6", len(seqs))
	}
}

func TestClosedOperations(t *testing.T) {
	w := openWAL(t, t.TempDir(), Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if _, _, err := w.Append(muts(1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed = %v", err)
	}
	if err := w.Replay(1, func(uint64, Mutation) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Replay on closed = %v", err)
	}
	if _, err := w.TruncateBefore(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("TruncateBefore on closed = %v", err)
	}
}

func TestBadMutationRejected(t *testing.T) {
	w := openWAL(t, t.TempDir(), Options{})
	if _, _, err := w.Append([]Mutation{{Op: 0}}); !errors.Is(err, ErrBadMutation) {
		t.Fatalf("zero op accepted: %v", err)
	}
	if _, _, err := w.Append([]Mutation{{Op: 99}}); !errors.Is(err, ErrBadMutation) {
		t.Fatalf("unknown op accepted: %v", err)
	}
	// A rejected batch must not burn sequence numbers.
	if w.NextSeq() != 1 {
		t.Fatalf("NextSeq after rejected batch = %d, want 1", w.NextSeq())
	}
}

func TestReplayAbortPropagates(t *testing.T) {
	w := openWAL(t, t.TempDir(), Options{})
	if _, _, err := w.Append(muts(3, 0)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := w.Replay(1, func(seq uint64, m Mutation) error {
		if seq == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Replay error = %v, want boom", err)
	}
}

func TestMutationEncodingProperty(t *testing.T) {
	// Every op round-trips through encode/decode including empty and
	// unicode fields and negative values.
	cases := []Mutation{
		{Op: OpUpsertTrust, Agent: "http://x/a", Peer: "http://x/b", Value: -1},
		{Op: OpUpsertTrust, Agent: "a", Peer: "b", Value: 0},
		{Op: OpDeleteTrust, Agent: "http://x/ü", Peer: "http://x/ö"},
		{Op: OpUpsertRating, Agent: "http://x/a", Product: "urn:isbn:9782000000015", Value: 0.125},
		{Op: OpDeleteRating, Agent: "http://x/a", Product: "p"},
		{Op: OpUpsertAgent, Agent: "http://x/a", Name: ""},
		{Op: OpUpsertAgent, Agent: "http://x/a", Name: "Ada Lovelace"},
	}
	for _, m := range cases {
		b, err := m.encode(nil)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		got, rest, err := decodeMutation(b)
		if err != nil || len(rest) != 0 || got != m {
			t.Fatalf("round trip %+v -> %+v (rest %d, err %v)", m, got, len(rest), err)
		}
	}
}
