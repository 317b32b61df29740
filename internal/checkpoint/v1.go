package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"swrec/internal/frame"
)

// The v1 reader. Format v1 framed its sections itself:
//
//	header:   "SWRECKP1" | u32 version (1) | u32 section count
//	section:  u32 id | u64 payload length | payload | u32 crc32(payload)
//	footer:   u32 footer magic | u32 crc32(every preceding file byte)
//
// Its statement sections are v2's byte for byte (loadRows reads both);
// its compiled ones are checksummed, never decoded. Decode fails a v1
// file with errOlder, and Recover keeps its statements and recompiles, as
// on ErrOptions.
const (
	v1Version     = 1
	v1HeaderLen   = len(fileMagic) + 8 // magic + version + section count
	v1FooterLen   = 8                  // footer magic + file CRC
	v1SectionHdr  = 12                 // id + payload length
	v1FooterMagic = 0x43465753         // "SWFC"
)

// errOlder is Decode's answer to a whole v1 or v2 file.
var errOlder = fmt.Errorf("%w: an older format, of which this build reads the statements only", ErrVersion)

// deframe checks the v1 container — version, the footer's whole-file
// checksum, the section table — and returns the sections by id, their own
// checksums unchecked.
func deframe(data []byte) (map[uint32]section, error) {
	if len(data) < v1HeaderLen+v1FooterLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than header+footer", ErrCorrupt, len(data))
	}
	end := len(data) - v1FooterLen
	if binary.LittleEndian.Uint32(data[end:]) != v1FooterMagic {
		return nil, fmt.Errorf("%w: bad footer magic (torn write?)", ErrCorrupt)
	}
	if ver := binary.LittleEndian.Uint32(data[len(fileMagic):]); ver != v1Version {
		return nil, fmt.Errorf("%w: file is v%d, this build reads v%d (and the statements of v1 and v2)", ErrVersion, ver, fileVersion)
	}
	if crc32.ChecksumIEEE(data[:end]) != binary.LittleEndian.Uint32(data[end+4:]) {
		return nil, fmt.Errorf("%w: file checksum mismatch", ErrCorrupt)
	}
	secs := map[uint32]section{}
	body := data[v1HeaderLen:end]
	for i := binary.LittleEndian.Uint32(data[len(fileMagic)+4:]); i > 0; i-- {
		if len(body) < v1SectionHdr {
			return nil, fmt.Errorf("%w: truncated section header", ErrCorrupt)
		}
		id, plen := binary.LittleEndian.Uint32(body), binary.LittleEndian.Uint64(body[4:])
		body = body[v1SectionHdr:]
		if plen > uint64(len(body)) || uint64(len(body))-plen < 4 {
			return nil, fmt.Errorf("%w: section %d overruns file", ErrCorrupt, id)
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		b := body[:plen]
		secs[id] = section{b: b, rec: frame.Record{Payload: b, Sum: binary.LittleEndian.Uint32(body[plen:])}}
		body = body[plen+4:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(body))
	}
	return secs, nil
}
