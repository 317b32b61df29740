package checkpoint

// Fuzz target for the checkpoint decoder and for what it accepts. A
// checkpoint file is read back after a crash, from a disk that may have
// torn or rotted it, and its counts size the decoder's allocations —
// boundedmake checks those bounds statically; this checks them by
// running. Every input is decoded twice, through the path that adopts the
// arrays in place and the one that copies them element by element; the
// two must agree on the verdict and, on success, bit for bit. An image
// the decoder accepts is restored into an engine and driven through the
// catalog index and a full recompile, so a file that decodes but crashes
// the engine is a finding too — for the full decode and for the
// statements-only one alike. Run with
//
//	go test -fuzz FuzzDecode ./internal/checkpoint
//
// In normal test runs only the seed corpus executes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"swrec/internal/frame"
	"swrec/internal/taxonomy"
)

// reseal recomputes every checksum over whatever a mutation left, so the
// mutated payloads get past them and reach the decoders, where the bounds
// checks are: in a v2 or v3 file every record's, in a v1 file every section's
// and the footer's. It follows the lengths as far as they stay inside the
// file.
func reseal(data []byte) []byte {
	out := bytes.Clone(data)
	if !bytes.HasPrefix(out, []byte(fileMagic)) {
		frame.Walk(out, func(off int, r frame.Record) error {
			frame.Seal(out[off : off+frame.HeaderSize+len(r.Payload)])
			return nil
		})
		return out
	}
	if len(out) < v1HeaderLen+v1FooterLen {
		return out
	}
	body := out[v1HeaderLen : len(out)-v1FooterLen]
	for len(body) >= v1SectionHdr {
		plen := binary.LittleEndian.Uint64(body[4:])
		body = body[v1SectionHdr:]
		if plen > uint64(len(body)) || uint64(len(body))-plen < 4 {
			break
		}
		binary.LittleEndian.PutUint32(body[plen:], crc32.ChecksumIEEE(body[:plen]))
		body = body[plen+4:]
	}
	binary.LittleEndian.PutUint32(out[len(out)-v1FooterLen:], v1FooterMagic)
	refoot(out)
	return out
}

// FuzzDecode is seeded with a v3 file, its cuts and flips, the v2 fixture
// and the two v1 fixtures.
func FuzzDecode(f *testing.F) {
	img := testImage(f, 7)
	data := Encode(img)
	f.Add(data)
	f.Add(readFixture(f, "v2.swc"))
	f.Add(readFixture(f, "v1.swc"))
	f.Add(readFixture(f, "v1-retired.swc")) // with the retired sections 8 and 10
	f.Add([]byte{})
	records := []int{}
	frame.Walk(data, func(off int, r frame.Record) error {
		records = append(records, off, off+frame.HeaderSize+2)
		return nil
	})
	for _, cut := range append(records, 1, len(data)/2, len(data)-1) {
		f.Add(data[:cut])
	}
	step := len(data)/37 + 1
	for off := 0; off < len(data); off += step {
		flipped := bytes.Clone(data)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			// The full decode, and the statements-only one Recover falls
			// back to on ErrOptions.
			for _, statementsOnly := range []bool{false, true} {
				img, err := decodeBoth(t, in, statementsOnly)
				switch {
				case err == nil:
					if img == nil || img.Community == nil {
						t.Fatal("decode returned neither an image nor an error")
					}
					// A restored neighborhood decodes its ranks on first
					// touch; touch them all, so the deferred decode is
					// fuzzed with the rest.
					for _, e := range img.Peers {
						e.Ranks()
					}
					eng, err := img.Restore(testConfig())
					if err != nil {
						continue
					}
					eng.Snapshot().TopicIndex().Subtree(taxonomy.Root)
					if _, err := eng.Swap(img.Community); err != nil {
						t.Fatalf("a full recompile of the restored community failed: %v", err)
					}
				case !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrOptions):
					t.Fatalf("decode failed outside the package's sentinel errors: %v", err)
				}
			}
		}
	})
}
