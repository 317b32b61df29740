// Package checkpoint persists one compiled serving snapshot — the
// community's statements, the profile-matrix arenas, the warm
// neighborhood cache and the epoch↔WAL-sequence mapping — so a restart
// loads the serving state in O(file size) instead of recomputing Appleseed
// and Eq. 3. These files are the installation's only durable snapshot:
// internal/ingest truncates the WAL behind them (DESIGN.md §11).
//
// File format v3 is a sequence of internal/frame records (integers
// little-endian; varints where noted):
//
//	header:   "SWRECKP1" | u32 version
//	section:  u32 id | section bytes        one record per section, ids ascending
//	trailer:  u32 0 | u32 section count
//
// Every byte is checksummed once, by its record: a truncation at a record
// boundary leaves no trailer, a torn record shows through its length, a
// bit flip fails its record's checksum. A write streams the sections
// through one reused buffer into a temporary, then fsyncs and renames it
// to ckpt-<seq>.swc.
//
// The bulk arrays — PROFMAT's key and value arenas, the statements of
// TRUST and RATINGS — are stored in exactly the layout the server reads,
// each at an 8-aligned file offset behind a pad (a count byte, then that
// many zero bytes). A load checks each record's checksum and then adopts
// those arrays as views of the file buffer, with no per-element copy
// (arrays.go; a big-endian GOARCH or a misaligned buffer copies element
// by element instead). Load reads the file into two buffers: the records
// before PEERS, which the adopted arrays keep alive for as long as a
// restored row lives, and PEERS with the trailer, which lives only as long
// as a restored neighborhood not yet read. The sections decode as joined
// tasks.
//
// Load rejects option-signature mismatches (ErrOptions) and unknown
// versions (ErrVersion). Of a v1 or v2 file only the statements are read:
// v2's statement sections are v1's, varint rows the v3 build reads with
// its statements-only reader (v1.go is v1's container). Recover keeps the
// statements of any of the three and recompiles, and falls back through
// retained checkpoints to the corpus.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"swrec/internal/frame"
)

const (
	// fileMagic opens the header record (and a v1 file).
	fileMagic = "SWRECKP1"
	// fileVersion is the format version this build writes and reads in
	// full. Once the WAL is truncated these files are the only copy of the
	// early records, so a build that bumps it must still read the
	// earlier versions' statement sections: loadRows reads v1's and v2's,
	// v1.go v1's container. Any other version is ErrVersion, not a
	// best-effort parse.
	fileVersion = 3
	// v2Version is the last version whose statements are varint rows.
	v2Version  = 2
	headerSize = len(fileMagic) + 4 // the header record: magic, version
	trailerID  = 0                  // opens the trailer record, before the section count
)

// Section identifiers, written in ascending order; an id the reader does
// not know is corruption, never skipped.
//
//	 1 META        epoch, seq, option signature, shape flags, counts
//	 2 TAXONOMY    per topic: name, primary parent, extra parents
//	 3 AGENTS      per agent: URI, name — the order is the agent ordinal
//	 4 PRODUCTS    per product: ID, title, ISBN, descriptors — likewise
//	 5 TRUST       per agent a u32 row end; pad; the rows' entries
//	 6 RATINGS     likewise, the product ordinal in each entry
//	 7 PROFMAT     varint row count; per row a u32 length; pad; i32 key arena;
//	               pad; f64 value arena; per row f64 norm, f64 sum
//	 8 retired     TOPICINDEX, per populated topic its product ordinals
//	 9 PEERS       per cached neighborhood: agent ordinal, pipe key (engine.PipeSize bytes), fixed-width ranks (peer ordinal first)
//	10 retired     PROFILES, the warm Eq. 3 profile cache
//
// A statement entry is model.Entry as it lies in memory: i32 target
// ordinal, 4 zero pad bytes, f64 value; agent a's row is the entries from
// the previous agent's row end (0 for the first) to its own, in
// TrustedPeers / RatedProducts order. The row ends must not decrease, and
// the last is the entry count. In v1 and v2 a row is a varint length,
// then per entry a varint ordinal and an f64 (loadRows).
//
// Ids 8 and 10 and META's flag bit 4, which announced section 8, are v1's
// and not in v2 or v3 (the topic index derives from sections 2 and 4;
// profiles are the rows of section 7). A v1 file that carries them gives
// back its statements; the two are checksummed, never decoded.
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

// peerRankSize is one fixed-width neighborhood rank in the PEERS
// section: u32 agent ordinal, f64 trust, f64 sim, u8 simOK, f64 weight.
const peerRankSize = 4 + 8 + 8 + 1 + 8

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

// enc accumulates one record payload.
type enc struct {
	b []byte
}

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) uv(v uint64)   { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) str(s string)  { e.b = append(binary.AppendUvarint(e.b, uint64(len(s))), s...) }

// dec walks one section payload, latching the first bounds error so call
// sites read linearly and check err once at the end. It advances an
// offset cursor instead of re-slicing b: the primitive readers run
// hundreds of thousands of times per load, and a pointer write per read
// (plus its GC write barrier) is measurable at that rate.
type dec struct {
	b   []byte
	at  int    // the file offset of b[0], which an array's alignment is checked against
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
// every element costs at least min (> 0) bytes, so a count the payload
// cannot possibly hold is corruption, caught before any giant allocation.
func (d *dec) count(n uint64, min int, what string) int {
	if d.err != nil {
		return 0
	}
	if n > uint64(d.rem()/min)+1 {
		d.err = fmt.Errorf("%w: absurd %s count %d", ErrCorrupt, what, n)
		return 0
	}
	return int(n)
}

// section is one section's bytes, aliasing the file, their file offset,
// and their record.
type section struct {
	b   []byte
	at  int
	rec frame.Record
}

// decoder returns a decoder over the section's bytes.
func (s section) decoder() *dec { return &dec{b: s.b, at: s.at} }

// split walks a v2 or v3 file's records — through head, then on through
// tail, which Load cuts off at a record boundary (tail is empty for a file
// in one buffer) — and returns its sections by id and its version. It
// checks the header and trailer whole, and each section's id, not its
// checksum.
func split(head, tail []byte) (map[uint32]section, uint32, error) {
	secs := make(map[uint32]section, secPeers)
	var ver uint32
	var torn, trailer bool
	var err error
	base := 0 // the file offset of the part being walked
	visit := func(off int, r frame.Record) error {
		off += base
		p := r.Payload
		switch {
		case trailer:
			return fmt.Errorf("%w: a record after the trailer, at offset %d", ErrCorrupt, off)
		case off == 0:
			if len(p) != headerSize || string(p[:len(fileMagic)]) != fileMagic || !r.Intact() {
				return fmt.Errorf("%w: bad header record", ErrCorrupt)
			}
			if ver = binary.LittleEndian.Uint32(p[len(fileMagic):]); ver != fileVersion && ver != v2Version {
				return fmt.Errorf("%w: file is v%d, this build reads v%d (and the statements of v1 and v2)", ErrVersion, ver, fileVersion)
			}
			return nil
		case len(p) < 4:
			return fmt.Errorf("%w: a %d-byte record at offset %d", ErrCorrupt, len(p), off)
		}
		switch id := binary.LittleEndian.Uint32(p); {
		case id == trailerID:
			if len(p) != 8 || !r.Intact() || binary.LittleEndian.Uint32(p[4:]) != uint32(len(secs)) {
				return fmt.Errorf("%w: bad trailer record, after %d sections", ErrCorrupt, len(secs))
			}
			trailer = true
		case id > secPeers || id == secTopicIndexRetired:
			return fmt.Errorf("%w: unknown section %d at offset %d", ErrCorrupt, id, off)
		default:
			if _, dup := secs[id]; dup {
				return fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
			}
			secs[id] = section{b: p[4:], at: off + frame.HeaderSize + 4, rec: r}
		}
		return nil
	}
	for _, part := range [][]byte{head, tail} {
		if _, torn, err = frame.Walk(part, visit); torn || err != nil {
			break
		}
		base += len(part)
	}
	if err == nil && (torn || !trailer) {
		err = fmt.Errorf("%w: no trailer record (truncated write?)", ErrCorrupt)
	}
	if err != nil {
		return nil, 0, err
	}
	return secs, ver, nil
}
