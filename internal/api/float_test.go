package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"math/big"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

var appendFloatN = flag.Float64("appendfloat.n", 1e6,
	"TestAppendFloatRandomBits: how many seeded random bit patterns to check (1e8 before a formatter change merges)")

// strconvJSON is the oracle: encoding/json's float64 encoder, spelled
// out on strconv.AppendFloat.
func strconvJSON(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1] // e-09 → e-9
			b = b[:n-1]
		}
	}
	return b
}

// checkFloat compares appendFloat with the oracle on x and -x, appending
// to a non-empty buffer so a write outside the new bytes shows.
func checkFloat(t *testing.T, x float64) {
	t.Helper()
	for _, v := range [2]float64{x, -x} {
		want := strconvJSON([]byte("<"), v)
		if got := appendFloat([]byte("<"), v); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%#016x) = %s, strconv writes %s", math.Float64bits(v), got[1:], want[1:])
		}
	}
}

// TestPow10TableMatchesBig recomputes every entry of the committed table
// exactly: g = floor(10^-k / 2^r) + 1 with 2^125 ≤ 10^-k / 2^r < 2^126,
// split into g>>63 and g mod 2^63.
func TestPow10TableMatchesBig(t *testing.T) {
	if len(pow10Table) != floatKMax-floatKMin+1 {
		t.Fatalf("pow10Table has %d entries, want %d", len(pow10Table), floatKMax-floatKMin+1)
	}
	one := big.NewInt(1)
	for k := floatKMin; k <= floatKMax; k++ {
		// 10^-k = num/den; r is chosen from floor(log2(10^-k)) =
		// flog2pow10(-k), which the formatter also uses.
		num, den := big.NewInt(1), big.NewInt(1)
		if k <= 0 {
			num.Exp(big.NewInt(10), big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		}
		r := flog2pow10(-k) - 125
		if r >= 0 {
			den.Lsh(den, uint(r))
		} else {
			num.Lsh(num, uint(-r))
		}
		g := new(big.Int).Quo(num, den)
		if g.BitLen() != 126 {
			t.Fatalf("k=%d: β has %d bits, want 126 (flog2pow10(%d) = %d)", k, g.BitLen(), -k, flog2pow10(-k))
		}
		g.Add(g, one)
		hi := new(big.Int).Rsh(g, 63)
		lo := new(big.Int).And(g, new(big.Int).SetUint64(mask63))
		if e := pow10Table[k-floatKMin]; e[0] != hi.Uint64() || e[1] != lo.Uint64() {
			t.Fatalf("k=%d: table holds {%#x, %#x}, math/big gives {%#x, %#x}", k, e[0], e[1], hi, lo)
		}
	}
}

// TestFloatTableIsGenerated runs the generator and requires its output
// to be the committed file, byte for byte.
func TestFloatTableIsGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go run")
	}
	out := filepath.Join(t.TempDir(), "float_table.go")
	cmd := exec.Command("go", "run", "gen_float_table.go", "-o", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go run gen_float_table.go: %v\n%s", err, msg)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("float_table.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("float_table.go is not gen_float_table.go's output; run go generate")
	}
}

// TestAppendFloatBoundaries pins the formatter to strconv where a
// shortest-digit algorithm goes wrong first: the ends of every binary
// exponent, the powers of ten and their neighbours, the two cut-offs of
// the 'f' form, the subnormals and the ends of the range.
func TestAppendFloatBoundaries(t *testing.T) {
	checkFloat(t, 0)
	for be := uint64(0); be < 0x7ff; be++ {
		lo, hi := be<<52, be<<52|(floatCMin-1)
		if be == 0 {
			lo = 1
		}
		for _, u := range []uint64{lo, lo + 1, hi - 1, hi} {
			checkFloat(t, math.Float64frombits(u))
		}
	}
	for e := -325; e <= 308; e++ {
		x, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil && x != 0 {
			t.Fatal(err)
		}
		checkFloat(t, x)
		checkFloat(t, math.Nextafter(x, 0))
		checkFloat(t, math.Nextafter(x, math.Inf(1)))
	}
	for _, cut := range []float64{1e-6, 1e21} {
		for x, i := cut, 0; i < 8; i++ {
			x = math.Nextafter(x, 0)
			checkFloat(t, x)
		}
		for x, i := cut, 0; i < 8; i++ {
			x = math.Nextafter(x, math.Inf(1))
			checkFloat(t, x)
		}
	}
	for u := uint64(1); u < 1<<12; u++ { // the smallest subnormals, and the largest
		checkFloat(t, math.Float64frombits(u))
		checkFloat(t, math.Float64frombits(floatCMin-u))
	}
	for _, x := range []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 1 << 53, 1<<53 + 2, 1 << 63} {
		checkFloat(t, x)
	}
	for i := 0; i <= 1000; i++ { // three-decimal statement values
		checkFloat(t, float64(i)/1000)
	}
	if got := string(appendFloat(nil, math.Copysign(0, -1))); got != "-0" {
		t.Fatalf("appendFloat(-0) = %s, want -0", got)
	}
}

// TestAppendFloatRandomBits compares the formatter with strconv on
// seeded random bit patterns: 10^6 by default, -appendfloat.n=1e8 for
// the full run.
func TestAppendFloatRandomBits(t *testing.T) {
	n := int(*appendFloatN)
	rng := rand.New(rand.NewSource(1117))
	var got, want []byte
	for i := 0; i < n; i++ {
		u := rng.Uint64()
		x := math.Float64frombits(u)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		got, want = appendFloat(got[:0], x), strconvJSON(want[:0], x)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%#016x) = %s, strconv writes %s", u, got, want)
		}
	}
}

// FuzzAppendFloat pins appendFloat, and finite, to encoding/json and to
// strconv on any float64.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range append(hostileFloats, 1e-7, 1e21, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)) {
		f.Add(x)
	}
	for _, u := range []uint64{
		0x0000000000000001, 0x000fffffffffffff, 0x0010000000000000, // subnormal ends, the smallest normal
		0x3fefffffffffffff, 0x3ff0000000000000, 0x3ff0000000000001, // around 1
		0x4330000000000000, 0x4340000000000000, 0x4340000000000001, // 2^52, 2^53
		0x3eb0c6f7a0b5ed8d, 0x444b1ae4d6e2ef50, // 1e-6, 1e21
		0x44b52d02c7e14af6, 0x7fefffffffffffff, 0x8000000000000000, // 1e23, MaxFloat64, -0
	} {
		f.Add(math.Float64frombits(u))
	}
	f.Fuzz(func(t *testing.T, x float64) {
		want, err := json.Marshal(x)
		if (err == nil) != finite(x) {
			t.Fatalf("finite(%v) = %v, encoding/json: %v", x, finite(x), err)
		}
		if err != nil {
			return
		}
		got := appendFloat(nil, x)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", x, got, want)
		}
		if oracle := strconvJSON(nil, x); !bytes.Equal(got, oracle) {
			t.Fatalf("appendFloat(%v) = %s, strconv writes %s", x, got, oracle)
		}
	})
}

// floatFamilies are the three kinds of value the API writes: similarities
// and trust ranks in (0, 1), Appleseed-sized energies and scores above 1,
// and three-decimal statement values such as 0.725.
func floatFamilies() map[string][]float64 {
	rng := rand.New(rand.NewSource(1117))
	fam := map[string][]float64{}
	for i := 0; i < 1024; i++ {
		fam["unit"] = append(fam["unit"], rng.Float64())
		fam["energy"] = append(fam["energy"], 1+199*rng.Float64())
		fam["statement"] = append(fam["statement"], float64(rng.Intn(1001))/1000)
	}
	return fam
}

var floatSink []byte

// BenchmarkAppendFloat times one value of each family through strconv
// (the form before the formatter, and its oracle) and through
// appendFloat.
func BenchmarkAppendFloat(b *testing.B) {
	fam := floatFamilies()
	impls := []struct {
		name string
		fn   func([]byte, float64) []byte
	}{{"strconv", strconvJSON}, {"api", appendFloat}}
	for _, impl := range impls {
		for _, name := range []string{"unit", "energy", "statement"} {
			vals := fam[name]
			b.Run(impl.name+"/"+name, func(b *testing.B) {
				buf := make([]byte, 0, 64)
				for i := 0; i < b.N; i++ {
					buf = impl.fn(buf[:0], vals[i&1023])
				}
				floatSink = buf
			})
		}
	}
}

// TestDigits8Exhaustive checks the lane arithmetic of digits8 on every
// x < 10^8 against an odometer of eight ASCII digits.
func TestDigits8Exhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("10^8 values")
	}
	want := [8]byte{'0', '0', '0', '0', '0', '0', '0', '0'}
	for x := uint64(0); x < 1e8; x++ {
		if got := digits8(x); got != binary.LittleEndian.Uint64(want[:]) {
			t.Fatalf("digits8(%d) = %q, want %q", x, binary.LittleEndian.AppendUint64(nil, got), want)
		}
		for i := 7; i >= 0; i-- {
			if want[i]++; want[i] <= '9' {
				break
			}
			want[i] = '0'
		}
	}
}
