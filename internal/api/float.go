package api

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// The number form of every float in a response: encoding/json's, which
// is the shortest decimal that reads back as the same float64, written
// positionally ('f') for 1e-6 ≤ |x| < 1e21 and in exponent form ('e')
// otherwise. The digits come from Schubfach (R. Giulietti, "The Schubfach
// way to render doubles", 2020): the float's rounding interval is scaled
// by a power of ten read from pow10Table, one 128-bit multiply per bound,
// and the one shortest decimal inside it is picked from at most four
// candidates. The table is static data written by gen_float_table.go
// (math/big); strconv.AppendFloat is this file's test oracle, not a
// fallback (float_test.go).

//go:generate go run gen_float_table.go

const (
	floatKMin = -324    // the decimal scale k of the smallest subnormal; pow10Table[0] is 10^324
	floatKMax = 292     // … of the largest finite value
	floatQMin = -1074   // the binary exponent of the subnormals
	floatCMin = 1 << 52 // the hidden bit of a normal significand
	mask63    = 1<<63 - 1
	// maxFloatLen bounds what appendFloat writes: "-0.00000" and 17
	// digits in 'f' form, "-d." 16 digits "e-324" in 'e' form.
	maxFloatLen = 25
)

// pow10u64[i] is 10^i.
var pow10u64 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// appendFloat appends a finite f as encoding/json formats a float64: the
// shortest digits that round-trip, positional unless the exponent is
// under -6 or at least 21, and then without the exponent's leading zero.
// ±0 is "0" and "-0". The bytes are written in place after b's length.
func appendFloat(b []byte, f float64) []byte {
	n := len(b)
	b = slices.Grow(b, maxFloatLen)
	out := b[n : n+maxFloatLen]
	u := math.Float64bits(f)
	p := 0
	if u>>63 != 0 {
		out[0] = '-'
		p = 1
		u &^= 1 << 63
	}
	if u == 0 {
		out[p] = '0'
		return b[:n+p+1]
	}
	d, e := shortest(u)
	nd := decimalLen(d)
	d *= pow10u64[17-nd] // seventeen digits, the first nonzero
	dp := nd + e         // f = ±0.d × 10^dp

	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		nz := put17(out[p+1:], d)
		out[p] = out[p+1]
		i := p + 1
		if nz > 1 {
			out[i] = '.'
			i += nz
		}
		out[i] = 'e'
		x := dp - 1
		if x < 0 {
			out[i+1] = '-'
			x = -x
		} else {
			out[i+1] = '+'
		}
		i += 2
		if x >= 100 {
			out[i] = byte('0' + x/100)
			x %= 100
			i++
			out[i] = byte('0' + x/10)
			i++
		} else if x >= 10 {
			out[i] = byte('0' + x/10)
			i++
		}
		out[i] = byte('0' + x%10)
		i++
		return b[:n+i]
	}

	if dp <= 0 { // 0.000ddd: "0.000000" in one store, the digits over its tail
		binary.LittleEndian.PutUint64(out[p:], 0x303030303030_2e30)
		at := p + 2 - dp
		return b[:n+at+put17(out[at:], d)]
	}
	nz := put17(out[p+1:], d)
	if dp < nz { // ddd.ddd
		copy(out[p:p+dp], out[p+1:p+1+dp])
		out[p+dp] = '.'
		return b[:n+p+1+nz]
	}
	// ddd000: the digits past nz are already zeros.
	copy(out[p:p+17], out[p+1:p+18])
	for i := p + 17; i < p+dp; i++ {
		out[i] = '0'
	}
	return b[:n+p+dp]
}

// decimalLen returns the number of decimal digits of 0 < d < 10^19.
func decimalLen(d uint64) int {
	n := flog10pow2(bits.Len64(d))
	if d >= pow10u64[n] {
		n++
	}
	return n
}

// put17 writes 10^16 ≤ d < 10^17 as seventeen digits into out[:17] and
// returns how many are left without the trailing zeros: one digit, then
// two halves of eight, each one store. A quotient by 10^8 is a multiply
// and a shift (the constants of section 10 of the Schubfach paper).
func put17(out []byte, d uint64) int {
	_ = out[16]
	hm, _ := bits.Mul64(d, 193428131138340668)
	hm >>= 20                  // d / 10^8
	h := hm * 1441151881 >> 57 // hm / 10^8, for hm < 10^9
	out[0] = byte('0' + h)
	m, l := digits8(hm-h*1e8), digits8(d-hm*1e8)
	binary.LittleEndian.PutUint64(out[1:9], m)
	binary.LittleEndian.PutUint64(out[9:17], l)
	// A trailing zero digit is a byte '0': the top bytes of a half that
	// are zero once "00000000" is taken out.
	const zeros = 0x3030303030303030
	if l != zeros {
		return 17 - bits.LeadingZeros64(l^zeros)>>3
	}
	if m != zeros {
		return 9 - bits.LeadingZeros64(m^zeros)>>3
	}
	return 1
}

// digits8 returns x < 10^8 as eight ASCII digits packed little-endian,
// the first digit in the low byte. The halves of four digits split into
// 32-bit lanes, each lane into pairs in 16-bit lanes, each pair into
// bytes: a quotient by 100 is ·10486 >> 20 (exact below 10^4), by 10
// ·103 >> 10 (exact below 100), and no lane carries into the next.
func digits8(x uint64) uint64 {
	hi := x * 109951163 >> 40 // x / 10^4, exact below 10^8
	v := hi | (x-hi*10000)<<32
	q := v * 10486 >> 20 & 0x0000007f_0000007f
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000f_000f_000f_000f
	v = q | (v-q*10)<<8
	return v | 0x3030303030303030
}

// shortest returns the shortest decimal d·10^e that rounds to the
// positive finite float64 with bits u, the closest to it on a tie in
// length and the even one on a tie in distance: the digits
// strconv.FormatFloat(x, 'e', -1, 64) writes. d < 10^17.
//
//swrec:hotpath
func shortest(u uint64) (uint64, int) {
	t := u & (floatCMin - 1)
	bq := int(u >> 52)
	if bq != 0 {
		mq := -floatQMin + 1 - bq // -q, for f = c·2^q
		c := floatCMin | t
		if 0 < mq && mq < 53 { // an integer below 2^53
			if f := c >> mq; f<<mq == c {
				return f, 0
			}
		}
		return schubfach(-mq, c)
	}
	return schubfach(floatQMin, t)
}

// schubfach returns the shortest decimal in the rounding interval of
// c·2^q, as its digits and their scale. The names follow figure 7 of the
// paper: cb, cbl, cbr are 4c and the interval's bounds on the same scale,
// vb, vbl, vbr the same scaled by 10^-k.
func schubfach(q int, c uint64) (uint64, int) {
	out := c & 1 // an even significand's interval includes its bounds
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != floatCMin || q == floatQMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else { // a power of two: the gap below is half the gap above
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10Table[k-floatKMin]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	s := vb >> 2
	// One digit fewer first: s' = floor(s/10) by a multiply, valid for
	// s < 10^17, and its candidates u' = 10s', w' = u' + 10; at most one
	// lies in the interval. (The paper skips this for s < 100, where
	// Java wants two digits anyway; the smallest subnormals have s < 100
	// and may need one, as 1e-322 does.)
	hi, _ := bits.Mul64(s, 115292150460684698<<4)
	sp10 := 10 * hi
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both in the interval: the closer, the even one on a tie.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns cp·g·2^-127 rounded to odd, for g = g1·2^63 + g0: the
// integer part, with the low bit set when a fraction was dropped.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&mask63+mask63)>>63
}

// flog10pow2 returns floor(q·log10(2)) for |q| ≤ 5,456,721.
func flog10pow2(q int) int { return int(int64(q) * 661971961083 >> 41) }

// flog10ThreeQuartersPow2 returns floor(log10(3/4 · 2^q)) for
// |q| ≤ 2,796,202.
func flog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661971961083 - 274743187321) >> 41)
}

// flog2pow10 returns floor(e·log2(10)) for |e| ≤ 1,838,394.
func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }
