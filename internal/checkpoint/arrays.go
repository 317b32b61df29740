package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"swrec/internal/model"
)

// The fixed-width arrays of format v3 — PROFMAT's key and value arenas,
// and the model.Entry arrays of TRUST and RATINGS — are little-endian and
// start at 8-aligned file offsets, in exactly the layout the server reads.
// Where this GOARCH lays them out as the file does and the array's bytes
// are 8-aligned in memory, the decoder adopts them: the slice it returns
// is a view of the file buffer (unsafe.Slice), which it keeps alive.
// Anywhere else — a big-endian GOARCH, a misaligned buffer — the same
// readers copy element by element through binary.LittleEndian. The two
// paths give the same values bit for bit; the tests and FuzzDecode decode
// every input both ways (a buffer one byte off its alignment takes the
// copying path).

// entrySize is the width of one statement in the file: i32 ordinal,
// 4 zero pad bytes, f64 value — model.Entry's memory layout.
const entrySize = 16

var (
	// littleEndian reports whether this GOARCH stores a number's bytes
	// in the file's order.
	littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	// adoptEntries adds that model.Entry is laid out as the file's
	// entries are (not so where a float64 is 4-aligned).
	adoptEntries = littleEndian && unsafe.Sizeof(model.Entry{}) == entrySize && unsafe.Offsetof(model.Entry{}.Val) == 8
)

// adoptable reports whether the non-empty array bytes b may be viewed in
// place: every element type read here needs at most 8-byte alignment.
func adoptable(b []byte) bool {
	return littleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0
}

// align reads the pad before an array — a count byte, then that many
// zero bytes — which must put the next byte at an 8-aligned file offset.
// The writer pads minimally, so a count of 8 or more is corrupt too.
func (d *dec) align(what string) {
	n := d.u8()
	pad := d.bytes(int(n), what+" pad")
	switch {
	case d.err != nil:
	case n >= 8 || (d.at+d.off)%8 != 0:
		d.err = fmt.Errorf("%w: %s starts at file offset %d after a %d-byte pad, not 8-aligned", ErrCorrupt, what, d.at+d.off, n)
	case !allZero(pad):
		d.err = fmt.Errorf("%w: non-zero pad before %s", ErrCorrupt, what)
	}
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// int32s reads an array of n int32s.
func (d *dec) int32s(n int, what string) []int32 {
	b := d.bytes(4*n, what)
	if d.err != nil || n == 0 {
		return nil
	}
	if adoptable(b) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// float64s reads an array of n float64s.
func (d *dec) float64s(n int, what string) []float64 {
	b := d.bytes(8*n, what)
	if d.err != nil || n == 0 {
		return nil
	}
	if adoptable(b) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// entries reads an array of n statements. The pad inside each must be
// zero, as the writer leaves it.
func (d *dec) entries(n int, what string) []model.Entry {
	b := d.bytes(entrySize*n, what)
	if d.err != nil || n == 0 {
		return nil
	}
	for i := 4; i < len(b); i += entrySize {
		if binary.LittleEndian.Uint32(b[i:]) != 0 {
			d.err = fmt.Errorf("%w: non-zero pad in %s entry %d", ErrCorrupt, what, i/entrySize)
			return nil
		}
	}
	if adoptEntries && adoptable(b) {
		return unsafe.Slice((*model.Entry)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]model.Entry, len(b)/entrySize)
	for i := range out {
		e := b[entrySize*i:]
		out[i] = model.Entry{Ord: int32(binary.LittleEndian.Uint32(e)), Val: math.Float64frombits(binary.LittleEndian.Uint64(e[8:]))}
	}
	return out
}
