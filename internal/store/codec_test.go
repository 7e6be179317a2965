package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// codecSpecials are the float32 bit patterns a value-converting codec would
// mangle: NaN payloads (quiet and signalling, both signs), ±0, subnormals and
// ±Inf. The codec must carry every one bit for bit.
var codecSpecials = []uint32{
	0x7fc00000, 0x7fc00001, 0x7f800001, 0xffc12345, 0xff800001,
	0x00000000, 0x80000000,
	0x00000001, 0x007fffff, 0x80000001, 0x807fffff,
	0x7f800000, 0xff800000,
}

// TestDecodeRowMatchesPortable checks the one-copy DecodeRow and EncodeRowPi
// bit for bit against the portable per-value loop they replace on
// little-endian hosts, for random bit patterns and the specials, at several
// K, with the source value at every byte offset 0–7 of a larger buffer (a
// DKV response or a shard mapping does not align rows). A short buffer fails
// with ErrShortRow before anything is copied.
func TestDecodeRowMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, k := range []int{1, 3, 64, 1024} {
		rb := RowBytes(k)
		for off := 0; off < 8; off++ {
			buf := make([]byte, off+rb+8)
			src := buf[off : off+rb]
			for j := 0; j < k; j++ {
				u := rng.Uint32()
				if j%4 == 0 {
					u = codecSpecials[(j/4+off)%len(codecSpecials)]
				}
				putF32(src[4*j:], math.Float32frombits(u))
			}
			putF64(src[4*k:], math.Float64frombits(rng.Uint64()))

			got := make([]float32, k)
			sum, err := DecodeRow(src, got)
			if err != nil {
				t.Fatalf("K=%d off=%d: %v", k, off, err)
			}
			want := make([]float32, k)
			decodePiPortable(src, want)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("K=%d off=%d: π[%d] = %#08x, portable %#08x",
						k, off, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
				}
			}
			if math.Float64bits(sum) != math.Float64bits(getF64(src[4*k:])) {
				t.Fatalf("K=%d off=%d: Σφ bits %#x, portable %#x", k, off, math.Float64bits(sum), math.Float64bits(getF64(src[4*k:])))
			}

			enc := make([]byte, off+rb)
			EncodeRowPi(enc[off:], got, sum)
			ref := make([]byte, rb)
			encodePiPortable(ref, got)
			putF64(ref[4*k:], sum)
			if !bytes.Equal(enc[off:], ref) {
				t.Fatalf("K=%d off=%d: EncodeRowPi bytes differ from the portable encode", k, off)
			}
			if !bytes.Equal(enc[off:], src) {
				t.Fatalf("K=%d off=%d: decode→encode is not the identity", k, off)
			}

			sentinel := math.Float32frombits(0xdeadbeef)
			for j := range got {
				got[j] = sentinel
			}
			if _, err := DecodeRow(src[:rb-1], got); !errors.Is(err, ErrShortRow) {
				t.Fatalf("K=%d off=%d: short buffer err=%v, want ErrShortRow", k, off, err)
			}
			for j, v := range got {
				if math.Float32bits(v) != 0xdeadbeef {
					t.Fatalf("K=%d off=%d: short decode wrote π[%d]", k, off, j)
				}
			}
		}
	}
}

// BenchmarkDecodeRow decodes every row of a 53 MB slab (mmap_tiered's π
// table) in a scattered order, one-copy against the portable loop; the
// ns/row metric is the per-row cost.
func BenchmarkDecodeRow(b *testing.B) {
	const slabBytes = 53 << 20
	decoders := []struct {
		name string
		fn   func(src []byte, pi []float32) float64
	}{
		{"one-copy", func(src []byte, pi []float32) float64 {
			sum, err := DecodeRow(src, pi)
			if err != nil {
				panic(err)
			}
			return sum
		}},
		{"portable", func(src []byte, pi []float32) float64 {
			decodePiPortable(src, pi)
			return getF64(src[4*len(pi):])
		}},
	}
	for _, k := range []int{64, 1024} {
		rb := RowBytes(k)
		rows := slabBytes / rb
		slab := make([]byte, rows*rb)
		rand.New(rand.NewSource(1)).Read(slab)
		order := rand.New(rand.NewSource(2)).Perm(rows)
		pi := make([]float32, k)
		for _, d := range decoders {
			b.Run(fmt.Sprintf("K=%d/%s", k, d.name), func(b *testing.B) {
				b.SetBytes(int64(rows * rb))
				var sink float64
				for i := 0; i < b.N; i++ {
					for _, a := range order {
						sink += d.fn(slab[a*rb:(a+1)*rb], pi)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
				benchSink = sink
			})
		}
	}
}

var benchSink float64

// TestDecodeRowShortInput pins the torn-value fix: DecodeRow must reject
// every truncation length below RowBytes(k) with the typed ErrShortRow —
// including the section boundaries (empty, mid-π, exactly at the π/Σφ seam,
// and mid-Σφ) that previously sliced out of range.
func TestDecodeRowShortInput(t *testing.T) {
	const k = 5
	full := make([]byte, RowBytes(k))
	pi := make([]float32, k)
	sum, err := normalise(pi, []float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	EncodeRowPi(full, pi, sum)
	for n := 0; n < RowBytes(k); n++ {
		sum, err := DecodeRow(full[:n], pi)
		if !errors.Is(err, ErrShortRow) {
			t.Fatalf("len %d: err=%v, want ErrShortRow", n, err)
		}
		if sum != 0 {
			t.Fatalf("len %d: partial Σφ=%v leaked from failed decode", n, sum)
		}
	}
	// The exact length still decodes.
	if _, err := DecodeRow(full, pi); err != nil {
		t.Fatalf("full row rejected: %v", err)
	}
}

// TestNormaliseDegenerate pins the zero-sum φ fix where every backend's
// writer normalises: a row whose mass is zero (or non-finite) must fail
// typed, with pi untouched.
func TestNormaliseDegenerate(t *testing.T) {
	const k = 3
	cases := map[string][]float64{
		"zero":    {0, 0, 0},
		"nan":     {1, math.NaN(), 1},
		"posinf":  {1, math.Inf(1), 1},
		"neginf":  {math.Inf(-1), 1, 1},
		"cancels": {1, -1, 0},
	}
	sentinel := math.Float32frombits(0xdeadbeef)
	for name, phi := range cases {
		pi := []float32{sentinel, sentinel, sentinel}
		if _, err := normalise(pi, phi); !errors.Is(err, ErrDegenerateRow) {
			t.Fatalf("%s: err=%v, want ErrDegenerateRow", name, err)
		}
		for j, v := range pi {
			if math.Float32bits(v) != 0xdeadbeef {
				t.Fatalf("%s: π[%d] clobbered by failed normalise", name, j)
			}
		}
	}
}

// TestWriteRowsDegenerateRow pins the degenerate-row contract on every
// backend. In a two-row batch one row has zero Σφ and one is valid; in a
// three-row batch two of them are degenerate, in both orders. The error
// names the first degenerate vertex in batch order and no other, every valid
// row lands with refWrite's bits, and each degenerate row keeps its previous
// value. At two DKV ranks vertex 2 is the writer's own and vertices 12 and 17
// its peer's.
func TestWriteRowsDegenerateRow(t *testing.T) {
	const n, k = 20, 3
	backends := []struct {
		name string
		with func(t *testing.T, body func(PiStore))
	}{
		{"local", func(t *testing.T, body func(PiStore)) {
			ls := NewLocal(make([]float32, n*k), make([]float64, n), k, 2)
			pi := make([]float32, k)
			for a := 0; a < n; a++ {
				if err := ls.WritePiRows([]int32{int32(a)}, pi, []float64{initPattern(a, pi)}); err != nil {
					t.Fatal(err)
				}
			}
			body(ls)
		}},
		{"mmap", func(t *testing.T, body func(PiStore)) { body(initMmap(t, n, k, MmapOptions{ShardRows: 16})) }},
		{"dkv", func(t *testing.T, body func(PiStore)) {
			twoRankStores(t, n, k, func(s *DKVStore) { body(s) })
		}},
	}
	batches := []struct {
		name string
		ids  []int32
		bad  []int // indices into ids, in batch order
	}{
		{"vertex 2", []int32{2, 17}, []int{0}},
		{"vertex 17", []int32{2, 17}, []int{1}},
		{"vertices 2 and 17", []int32{2, 12, 17}, []int{0, 2}},
		{"vertices 17 and 2", []int32{17, 12, 2}, []int{0, 2}},
	}
	// On the valid row SetPhiRow's float32(v·(1/Σφ)) and the one-rounding
	// float32(v/Σφ) differ in the last bit of π[0] (Σφ is exactly 3), so a
	// backend that stores it must have used SetPhiRow's arithmetic.
	valid := []float64{0x1.e731178000001p-1, 0x1.0633ba2p+1, 0}
	if wantPi, wantSum := refWrite(valid); wantSum != 3 || wantPi[0] == float32(valid[0]/wantSum) {
		t.Fatalf("the valid row does not tell v·inv from v/Σφ: Σφ=%v π[0]=%v", wantSum, wantPi[0])
	}
	for _, b := range backends {
		for _, c := range batches {
			t.Run(b.name+"/"+c.name, func(t *testing.T) {
				b.with(t, func(ps PiStore) {
					phi := make([]float64, 0, len(c.ids)*k)
					for i := range c.ids {
						if slices.Contains(c.bad, i) {
							phi = append(phi, 0, 0, 0)
						} else {
							phi = append(phi, valid...)
						}
					}
					err := ps.WriteRows(c.ids, phi)
					if !errors.Is(err, ErrDegenerateRow) {
						t.Fatalf("zero-sum φ row accepted: %v", err)
					}
					for j, i := range c.bad {
						if named := strings.Contains(err.Error(), fmt.Sprintf("vertex %d:", c.ids[i])); named != (j == 0) {
							t.Fatalf("error %q: names vertex %d = %v, want only the first degenerate vertex %d",
								err, c.ids[i], named, c.ids[c.bad[0]])
						}
					}
					var rows Rows
					if err := ps.ReadRows(c.ids, &rows); err != nil {
						t.Fatal(err)
					}
					wantPi, wantSum := refWrite(valid)
					for i, a := range c.ids {
						if slices.Contains(c.bad, i) {
							checkInitRow(t, &rows, i, a, k)
						} else if rows.PhiSum[i] != wantSum || !slices.Equal(rows.PiRow(i), wantPi) {
							t.Fatalf("valid vertex %d skipped alongside the degenerate one: Σφ=%v π=%v, want %v %v",
								a, rows.PhiSum[i], rows.PiRow(i), wantSum, wantPi)
						}
					}
				})
			})
		}
	}
}
