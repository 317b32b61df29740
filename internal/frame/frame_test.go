package frame

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
)

// frames seals each payload into one buffer.
func frames(payloads ...string) []byte {
	var buf []byte
	for _, p := range payloads {
		start := len(buf)
		buf = append(Start(buf), p...)
		Seal(buf[start:])
	}
	return buf
}

// scan collects what Scan hands to its callback.
func scan(data []byte, max uint32) (payloads []string, offs []int64, good int64, torn bool, err error) {
	good, torn, err = Scan(bytes.NewReader(data), int64(len(data)), max, func(off int64, p []byte) error {
		payloads = append(payloads, string(p))
		offs = append(offs, off)
		return nil
	})
	return payloads, offs, good, torn, err
}

// walk collects what Walk hands to its callback, stopping as Scan does at
// the first record whose checksum fails.
func walk(data []byte) (payloads []string, offs []int64, good int64, torn bool, err error) {
	g, torn, err := Walk(data, func(off int, r Record) error {
		if !r.Intact() {
			return ErrCorrupt
		}
		payloads = append(payloads, string(r.Payload))
		offs = append(offs, int64(off))
		return nil
	})
	return payloads, offs, int64(g), torn, err
}

// requireWalkIsScan: over bytes already in memory, Walk reports what Scan
// reports over the same bytes as a file.
func requireWalkIsScan(t *testing.T, data []byte) {
	t.Helper()
	sp, so, sgood, storn, serr := scan(data, math.MaxUint32)
	wp, wo, wgood, wtorn, werr := walk(data)
	if !slices.Equal(sp, wp) || !slices.Equal(so, wo) || sgood != wgood || storn != wtorn || (serr != nil) != (werr != nil) {
		t.Fatalf("walk: %d records, good %d torn %v err %v; scan: %d records, good %d torn %v err %v",
			len(wp), wgood, wtorn, werr, len(sp), sgood, storn, serr)
	}
}

// TestCutAtEveryOffset is the shape of every crash mid-append: a file
// cut anywhere is torn at its last complete frame, never corrupt.
func TestCutAtEveryOffset(t *testing.T) {
	want := []string{"alpha", "", "a longer third payload"}
	data := frames(want...)
	ends := []int64{HeaderSize + 5, 2*HeaderSize + 5, int64(len(data))}
	for cut := 0; cut <= len(data); cut++ {
		requireWalkIsScan(t, data[:cut])
		got, offs, good, torn, err := scan(data[:cut], 64)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= int64(cut) {
			whole++
		}
		wantGood := int64(0)
		if whole > 0 {
			wantGood = ends[whole-1]
		}
		if good != wantGood || torn != (int64(cut) != wantGood) || len(got) != whole {
			t.Fatalf("cut %d: good %d torn %v, %d payloads; want good %d, %d payloads", cut, good, torn, len(got), wantGood, whole)
		}
		for i := range got {
			if got[i] != want[i] || (i > 0 && offs[i] != ends[i-1]) {
				t.Fatalf("cut %d: payload %d = %q at %d", cut, i, got[i], offs[i])
			}
		}
	}
}

func TestScanCorrupt(t *testing.T) {
	data := frames("first", "second")
	flipped := bytes.Clone(data)
	flipped[len(flipped)-1] ^= 1
	if _, _, good, _, err := scan(flipped, 64); !errors.Is(err, ErrCorrupt) || good != HeaderSize+5 {
		t.Fatalf("flipped payload byte: good %d err %v, want ErrCorrupt at %d", good, err, HeaderSize+5)
	}
	if _, _, good, _, err := scan(data, 5); !errors.Is(err, ErrCorrupt) || good != HeaderSize+5 {
		t.Fatalf("payload over the bound: good %d err %v, want ErrCorrupt at %d", good, err, HeaderSize+5)
	}
	boom := errors.New("boom")
	if _, _, err := Scan(bytes.NewReader(data), int64(len(data)), 64, func(int64, []byte) error { return boom }); err != boom {
		t.Fatalf("callback error = %v, want it returned as is", err)
	}
}

// FuzzScan: on any bytes the scan ends intact, torn or ErrCorrupt, the
// intact prefix it reports rescans clean to the same payloads, and Walk
// over the bytes in memory agrees with it.
//
//	go test -fuzz FuzzScan ./internal/frame
func FuzzScan(f *testing.F) {
	data := frames("alpha", "", "a longer third payload")
	f.Add([]byte{})
	f.Add(data)
	for _, cut := range []int{1, HeaderSize - 1, HeaderSize, HeaderSize + 3, len(data) - 1} {
		f.Add(data[:cut])
	}
	for _, off := range []int{0, 4, HeaderSize, len(data) - 2} {
		flipped := bytes.Clone(data)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireWalkIsScan(t, data)
		got, _, good, torn, err := scan(data, 1<<10)
		switch {
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("scan failed outside ErrCorrupt: %v", err)
		case good < 0 || good > int64(len(data)):
			t.Fatalf("good %d outside the %d-byte input", good, len(data))
		case err == nil && !torn && good != int64(len(data)):
			t.Fatalf("intact scan stopped at %d of %d", good, len(data))
		}
		again, _, good2, torn2, err := scan(data[:good], 1<<10)
		if err != nil || torn2 || good2 != good || len(again) != len(got) {
			t.Fatalf("prefix rescans to good %d torn %v err %v, %d payloads; want %d, %d", good2, torn2, err, len(again), good, len(got))
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("payload %d rescans as %q, was %q", i, again[i], got[i])
			}
		}
	})
}
