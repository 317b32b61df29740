package checkpoint

// Fuzz target for the checkpoint decoder and for what it accepts. A
// checkpoint file is read back after a crash, from a disk that may have
// torn or rotted it, and its counts size the decoder's allocations —
// boundedmake checks those bounds statically; this checks them by
// running. An image the decoder accepts is restored into an engine and
// driven through the catalog index and a full recompile, so a file that
// decodes but crashes the engine is a finding too — for the full decode
// and for the statements-only one alike. Run with
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

	"swrec/internal/taxonomy"
)

// reseal recomputes every section CRC and the footer over whatever a
// mutation left, so the mutated payloads get past the checksums and
// reach the section decoders, where the bounds checks are. It follows the
// section lengths as far as they stay inside the file.
func reseal(data []byte) []byte {
	if len(data) < headerLen+footerLen {
		return data
	}
	out := bytes.Clone(data)
	body := out[headerLen : len(out)-footerLen]
	for len(body) >= sectionHdr {
		plen := binary.LittleEndian.Uint64(body[4:])
		body = body[sectionHdr:]
		if plen > uint64(len(body)) || uint64(len(body))-plen < 4 {
			break
		}
		binary.LittleEndian.PutUint32(body[plen:], crc32.ChecksumIEEE(body[:plen]))
		body = body[plen+4:]
	}
	binary.LittleEndian.PutUint32(out[len(out)-footerLen:], footerMagic)
	refoot(out)
	return out
}

func FuzzDecode(f *testing.F) {
	img := testImage(f, 7)
	data := Encode(img)
	f.Add(data)
	f.Add(withRetiredProfiles(data, img))             // a v1 file from before PROFILES was retired
	f.Add(WithRetiredTopicIndex(data, img.Community)) // and from before TOPICINDEX was
	f.Add([]byte{})
	for _, cut := range []int{1, headerLen - 1, headerLen, headerLen + sectionHdr, len(data) / 2, len(data) - footerLen, len(data) - 1} {
		f.Add(data[:cut])
	}
	step := len(data)/37 + 1
	for off := 0; off < len(data); off += step {
		flipped := bytes.Clone(data)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}
	opt := testOptions()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			// The full decode, and the statements-only one Recover falls
			// back to on ErrOptions.
			for _, statementsOnly := range []bool{false, true} {
				img, err := decode(in, opt, statementsOnly)
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
