// Package checkpoint persists one compiled serving snapshot — the
// community's statement state, the CSR profile-matrix arenas
// (internal/profmat), the warm neighborhood cache, and the
// epoch↔WAL-sequence mapping — in a flat binary file, so
// a swrecd restart loads the serving state in O(file size) instead of
// recomputing Appleseed and Eq. 3 for the whole community. What is
// cheap to derive from the statements — the topic index — is not
// stored; the restored engine builds it on first use. The restored
// neighborhoods serve a restart with no WAL tail (a clean shutdown leaves
// none); a tail's replay publishes, and that evicts whichever of them
// the replayed records' dirty closure covers.
//
// Restored neighborhoods materialize on first touch. Load checks every
// PEERS entry's frame and rank ordinals, but leaves the ranks in the file
// buffer: each entry reaches the engine as a decoder over its own bytes,
// run when the neighborhood is first read, so entries a publish evicts
// unread are never decoded. The price is that an entry not yet read pins
// the whole file buffer (pointer-free, so the GC does not scan it) until
// its snapshot is dropped. Entry agents and rank peers are ordinals on the
// wire and in the engine alike: writing or restoring one resolves no URI.
//
// File format (all integers little-endian; varints where noted):
//
//	header:   "SWRECKP1" | u32 version | u32 section count
//	section:  u32 id | u64 payload length | payload | u32 crc32(payload)
//	footer:   u32 footer magic | u32 crc32(every preceding file byte)
//
// Every section is independently CRC32-framed and the footer checksums
// the whole file. A load decodes the sections as concurrent tasks, each
// checking a section's CRC before it decodes a byte of it, and one
// checking the footer and the sections no task decodes; Decode joins
// every task before it returns anything. So a torn write, a bit flip, or
// a truncation fails the load — corruption is always an error, never a
// silently wrong snapshot — and one input always fails with one error,
// whichever task finished first. Files are written
// atomically (unique temp + fsync + rename) and named ckpt-<seq>.swc by
// the WAL sequence number they cover; Load rejects unknown versions and
// option-signature mismatches, and the recovery ladder (Recover) falls
// back through retained checkpoints to a full recompute from the source
// corpus — keeping only the statement sections of a file whose options
// no longer match. These files are the installation's only durable snapshot:
// internal/ingest writes them and truncates the WAL to the oldest one
// retained.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// fileMagic opens every checkpoint file.
	fileMagic = "SWRECKP1"
	// fileVersion is the format version this build reads and writes.
	// Decoders reject any other version — a version bump is a declared
	// incompatibility, not a best-effort parse. Once the WAL is truncated
	// these files are the only copy of the early records, so a build that
	// bumps it must still read the previous version's statement sections.
	fileVersion = 1
	// footerMagic marks the start of the whole-file checksum footer.
	footerMagic = 0x43465753 // "SWFC"
)

// Section identifiers. The writer emits sections in ascending id order;
// the reader indexes them by id, so unknown ids from a newer same-version
// writer would be detected as such rather than misparsed.
//
//	 1 META        epoch, seq, option signature, shape flags, counts
//	 2 TAXONOMY    per topic: name, primary parent, extra parents
//	 3 AGENTS      per agent: URI, name — the order is the agent ordinal
//	 4 PRODUCTS    per product: ID, title, ISBN, descriptors — likewise
//	 5 TRUST       per agent: (target ordinal, value) in TrustedPeers order
//	 6 RATINGS     per agent: (product ordinal, value) in RatedProducts order
//	 7 PROFMAT     the profile matrix: row lengths, key arena, value arena, norm/sum
//	 8 retired     TOPICINDEX, per populated topic its product ordinals
//	 9 PEERS       per cached neighborhood: agent ordinal, pipe key, fixed-width ranks (peer ordinal first)
//	10 retired     PROFILES, the warm Eq. 3 profile cache
//
// Ids 8 and 10 are retired, not reusable: no reader asks for them any
// more (the topic index is derived from sections 2 and 4 on first use;
// profiles are the rows of section 7), and META's flag bit 4, which
// announced section 8, is neither written nor read. A v1 file that still
// carries either loads — the decoder checks its frame and CRC like any
// section's and never decodes its payload.
const (
	secMeta = iota + 1
	secTaxonomy
	secAgents
	secProducts
	secTrust
	secRatings
	secProfmat
	secTopicIndexRetired
	secPeers
	secProfilesRetired
)

const (
	headerLen  = len(fileMagic) + 8 // magic + version + section count
	footerLen  = 8                  // footer magic + file CRC
	sectionHdr = 12                 // id + payload length
	// peerRankSize is one fixed-width neighborhood rank in the PEERS
	// section: u32 agent ordinal, f64 trust, f64 sim, u8 simOK, f64
	// weight.
	peerRankSize = 4 + 8 + 8 + 1 + 8
)

var (
	// ErrCorrupt is returned when a checkpoint file fails structural or
	// checksum validation — the signal that sends the recovery ladder to
	// its next rung.
	ErrCorrupt = errors.New("checkpoint: corrupt file")
	// ErrVersion is returned for a well-formed file of a format version
	// this build does not speak.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrOptions is returned when a checkpoint was written under a
	// different engine option signature: its compiled rows and caches
	// would be silently wrong for the requested pipeline. Its statement
	// sections are not; Recover keeps those and recompiles.
	ErrOptions = errors.New("checkpoint: option signature mismatch")
)

// File is the handle checkpoint writes go through. *os.File satisfies
// it; the indirection is the fault-injection seam (internal/faultinject
// wraps it with torn-write, write-error, and fsync-failure behavior).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// enc accumulates one section payload.
type enc struct {
	b []byte
}

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) uv(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.uv(uint64(len(s)))
	e.b = append(e.b, s...)
}

// dec walks one section payload, latching the first bounds error so call
// sites read linearly and check err once at the end. It advances an
// offset cursor instead of re-slicing b: the primitive readers run
// hundreds of thousands of times per load, and a pointer write per read
// (plus its GC write barrier) is measurable at that rate.
type dec struct {
	b   []byte
	s   string // b as a string, made at the first str; every string read is a substring of it
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
}

// rem is the number of unread payload bytes.
func (d *dec) rem() int { return len(d.b) - d.off }

func (d *dec) u8() uint8 {
	if d.err != nil || d.rem() < 1 {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.rem() < 4 {
		d.fail("uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.rem() < 8 {
		d.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) f64() float64 {
	return math.Float64frombits(d.u64())
}

// ord reads a varint ordinal into a table of limit entries; one outside
// the table is corruption.
func (d *dec) ord(limit int, what string) int32 {
	v := d.uv()
	if d.err == nil && v >= uint64(limit) {
		d.err = fmt.Errorf("%w: %s %d outside [0,%d)", ErrCorrupt, what, v, limit)
	}
	if d.err != nil {
		return 0
	}
	return int32(v)
}

// bytes returns the next n payload bytes without copying — the bulk
// path for fixed-width arenas, where per-element error checks would
// dominate decode time.
func (d *dec) bytes(n int, what string) []byte {
	if d.err != nil || d.rem() < n {
		d.fail(what)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// skip advances past n bytes; skipStr past one length-prefixed string —
// the sizing pre-pass, which must not allocate.
func (d *dec) skip(n int, what string) {
	if d.err != nil || d.rem() < n {
		d.fail(what)
		return
	}
	d.off += n
}

func (d *dec) skipStr(what string) {
	n := d.uv()
	if d.err != nil || uint64(d.rem()) < n {
		d.fail(what)
		return
	}
	d.off += int(n)
}

func (d *dec) str() string {
	n := d.uv()
	if d.err != nil || uint64(d.rem()) < n {
		d.fail("string")
		return ""
	}
	if d.s == "" {
		// One copy per section instead of one per string: the sections
		// that hold strings hold little else, so a substring pins hardly
		// more than itself.
		d.s = string(d.b)
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

// count validates a decoded element count against the bytes that remain:
// every element costs at least min bytes, so a count the payload cannot
// possibly hold is corruption, caught before any giant allocation.
func (d *dec) count(n uint64, min int, what string) int {
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(d.rem()/min)+1 {
		d.err = fmt.Errorf("%w: absurd %s count %d", ErrCorrupt, what, n)
		return 0
	}
	return int(n)
}

// frame appends one CRC32-framed section to out.
func frame(out []byte, id uint32, payload []byte) []byte {
	out = binary.LittleEndian.AppendUint32(out, id)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// section is one framed payload, aliasing the file, and the CRC32 stored
// after it — which deframe does not check: decode's tasks do.
type section struct {
	b   []byte
	crc uint32
}

// deframe checks the container structure of data — magic, version,
// section table, overruns, duplicates, trailing bytes — and returns the
// sections by id. It computes no checksum.
func deframe(data []byte) (map[uint32]section, error) {
	if len(data) < headerLen+footerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than header+footer", ErrCorrupt, len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(data[len(data)-footerLen:]) != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic (torn write?)", ErrCorrupt)
	}
	ver := binary.LittleEndian.Uint32(data[len(fileMagic):])
	if ver != fileVersion {
		return nil, fmt.Errorf("%w: file is v%d, this build reads v%d", ErrVersion, ver, fileVersion)
	}
	nsec := binary.LittleEndian.Uint32(data[len(fileMagic)+4:])

	body := data[headerLen : len(data)-footerLen]
	// Every section costs at least a header plus its checksum, so the
	// count can never exceed the body's capacity to hold that many —
	// a hostile header must not pre-size the map beyond it.
	if uint64(nsec) > uint64(len(body))/(sectionHdr+4) {
		return nil, fmt.Errorf("%w: section count %d exceeds file capacity", ErrCorrupt, nsec)
	}
	secs := make(map[uint32]section, nsec)
	for i := uint32(0); i < nsec; i++ {
		if len(body) < sectionHdr {
			return nil, fmt.Errorf("%w: truncated section header", ErrCorrupt)
		}
		id := binary.LittleEndian.Uint32(body)
		plen := binary.LittleEndian.Uint64(body[4:])
		body = body[sectionHdr:]
		if plen > uint64(len(body)) || uint64(len(body))-plen < 4 {
			return nil, fmt.Errorf("%w: section %d overruns file", ErrCorrupt, id)
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		secs[id] = section{b: body[:plen], crc: binary.LittleEndian.Uint32(body[plen:])}
		body = body[plen+4:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(body))
	}
	return secs, nil
}
