package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
	if err := EncodeRow(full, []float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	pi := make([]float32, k)
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

// TestEncodeRowDegenerate pins the zero-sum φ fix at the codec layer: a row
// whose mass is zero (or non-finite) must fail typed, with dst untouched.
func TestEncodeRowDegenerate(t *testing.T) {
	const k = 3
	cases := map[string][]float64{
		"zero":    {0, 0, 0},
		"nan":     {1, math.NaN(), 1},
		"posinf":  {1, math.Inf(1), 1},
		"neginf":  {math.Inf(-1), 1, 1},
		"cancels": {1, -1, 0},
	}
	for name, phi := range cases {
		buf := make([]byte, RowBytes(k))
		for i := range buf {
			buf[i] = 0xAB
		}
		if err := EncodeRow(buf, phi); !errors.Is(err, ErrDegenerateRow) {
			t.Fatalf("%s: err=%v, want ErrDegenerateRow", name, err)
		}
		for i, b := range buf {
			if b != 0xAB {
				t.Fatalf("%s: dst[%d] clobbered by failed encode", name, i)
			}
		}
	}
}

// TestLocalStoreDegenerateRow pins the end-to-end behaviour on the in-RAM
// backend: the error names the vertex, valid sibling rows in the same batch
// still land, and the degenerate row's previous value is preserved.
func TestLocalStoreDegenerateRow(t *testing.T) {
	const n, k = 8, 3
	ls := NewLocal(make([]float32, n*k), make([]float64, n), k, 1)
	if err := ls.WriteRows([]int32{2, 5}, []float64{1, 1, 2, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}

	err := ls.WriteRows([]int32{2, 5}, []float64{0, 0, 0, 7, 7, 7})
	if !errors.Is(err, ErrDegenerateRow) {
		t.Fatalf("zero-sum φ row accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "vertex 2") {
		t.Fatalf("error %q does not name vertex 2", err)
	}

	var rows Rows
	if err := ls.ReadRows([]int32{2, 5}, &rows); err != nil {
		t.Fatal(err)
	}
	_, oldSum := refWrite([]float64{1, 1, 2})
	if rows.PhiSum[0] != oldSum {
		t.Fatalf("degenerate write clobbered row 2: Σφ=%v, want %v", rows.PhiSum[0], oldSum)
	}
	_, newSum := refWrite([]float64{7, 7, 7})
	if rows.PhiSum[1] != newSum {
		t.Fatalf("valid row 5 skipped alongside degenerate row: Σφ=%v, want %v", rows.PhiSum[1], newSum)
	}
}

// TestDKVStoreDegenerateRow pins the same contract on the distributed
// backend, for both a locally-owned and a remote vertex.
func TestDKVStoreDegenerateRow(t *testing.T) {
	const n, k = 20, 3
	twoRankStores(t, n, k, func(s *DKVStore) {
		for _, vertex := range []int32{2, 17} { // rank 0 owns 2, rank 1 owns 17
			err := s.WriteRows([]int32{vertex}, []float64{0, 0, 0})
			if !errors.Is(err, ErrDegenerateRow) {
				t.Fatalf("vertex %d: zero-sum φ row accepted: %v", vertex, err)
			}
			// The stored row keeps its initial value.
			var rows Rows
			if err := s.ReadRows([]int32{vertex}, &rows); err != nil {
				t.Fatal(err)
			}
			checkInitRow(t, &rows, 0, vertex, k)
		}
	})
}
