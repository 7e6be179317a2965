package store

import (
	"testing"

	"repro/internal/transport"
)

func TestRowCodecRoundTrip(t *testing.T) {
	const k = 7
	phi := []float64{0.5, 1.25, 3, 0.125, 2, 0.75, 1}
	buf := make([]byte, RowBytes(k))
	if err := EncodeRow(buf, phi); err != nil {
		t.Fatal(err)
	}
	pi := make([]float32, k)
	sum, err := DecodeRow(buf, pi)
	if err != nil {
		t.Fatal(err)
	}
	var wantSum float64
	for _, v := range phi {
		wantSum += v
	}
	if sum != wantSum {
		t.Fatalf("Σφ = %v, want %v", sum, wantSum)
	}
	for i, v := range phi {
		want := float32(v / wantSum)
		if pi[i] != want {
			t.Fatalf("π[%d] = %v, want %v", i, pi[i], want)
		}
	}
}

func TestEncodeRowPiRoundTrip(t *testing.T) {
	const k = 3
	pi := []float32{0.25, 0.5, 0.25}
	buf := make([]byte, RowBytes(k))
	EncodeRowPi(buf, pi, 42.5)
	got := make([]float32, k)
	sum, err := DecodeRow(buf, got)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 42.5 {
		t.Fatalf("Σφ = %v, want 42.5", sum)
	}
	for i := range pi {
		if got[i] != pi[i] {
			t.Fatalf("π[%d] = %v, want %v", i, got[i], pi[i])
		}
	}
}

// refWrite is the reference SetPhiRow arithmetic every backend must match.
func refWrite(phi []float64) ([]float32, float64) {
	var sum float64
	for _, v := range phi {
		sum += v
	}
	inv := 1 / sum
	pi := make([]float32, len(phi))
	for i, v := range phi {
		pi[i] = float32(v * inv)
	}
	return pi, sum
}

func TestLocalStoreReadWrite(t *testing.T) {
	const n, k = 10, 4
	ls := NewLocal(make([]float32, n*k), make([]float64, n), k, 1)
	if ls.NumRows() != n || ls.K() != k {
		t.Fatalf("dims %d×%d, want %d×%d", ls.NumRows(), ls.K(), n, k)
	}

	ids := []int32{3, 7, 0}
	phi := []float64{
		1, 2, 3, 4,
		0.5, 0.25, 0.125, 0.0625,
		10, 20, 30, 40,
	}
	if err := ls.WriteRows(ids, phi); err != nil {
		t.Fatal(err)
	}

	var rows Rows
	if err := ls.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows.PhiSum) != len(ids) {
		t.Fatalf("read %d rows, want %d", len(rows.PhiSum), len(ids))
	}
	for i := range ids {
		wantPi, wantSum := refWrite(phi[i*k : (i+1)*k])
		if rows.PhiSum[i] != wantSum {
			t.Fatalf("row %d: Σφ = %v, want %v", i, rows.PhiSum[i], wantSum)
		}
		for j, w := range wantPi {
			if rows.PiRow(i)[j] != w {
				t.Fatalf("row %d: π[%d] = %v, want %v", i, j, rows.PiRow(i)[j], w)
			}
		}
	}
}

func TestLocalStoreRejectsBadInput(t *testing.T) {
	ls := NewLocal(make([]float32, 4*2), make([]float64, 4), 2, 1)
	var rows Rows
	if err := ls.ReadRows([]int32{4}, &rows); err == nil {
		t.Fatal("out-of-range key accepted by ReadRows")
	}
	if err := ls.WriteRows([]int32{-1}, []float64{1, 2}); err == nil {
		t.Fatal("negative key accepted by WriteRows")
	}
	if err := ls.WriteRows([]int32{0}, []float64{1}); err == nil {
		t.Fatal("short phi accepted by WriteRows")
	}
}

// TestBackendsRejectBadArguments: a key outside [0, N) or a φ slice of the
// wrong length is an error from every backend, before any row is touched —
// never a panic, least of all one inside a worker goroutine where no caller
// could recover it.
func TestBackendsRejectBadArguments(t *testing.T) {
	const n, k = 10, 3
	backends := []struct {
		name string
		with func(t *testing.T, body func(PiStore))
	}{
		{"local", func(t *testing.T, body func(PiStore)) {
			body(NewLocal(make([]float32, n*k), make([]float64, n), k, 2))
		}},
		{"dkv", func(t *testing.T, body func(PiStore)) {
			twoRankStores(t, n, k, func(s *DKVStore) { body(s) })
		}},
		{"mmap", func(t *testing.T, body func(PiStore)) { body(initMmap(t, n, k, MmapOptions{})) }},
		{"tiered", func(t *testing.T, body func(PiStore)) { body(tierFixture(t, n, k)) }},
	}
	read := func(id int32) func(PiStore) error {
		return func(ps PiStore) error { return ps.ReadRows([]int32{0, id}, new(Rows)) }
	}
	write := func(id int32) func(PiStore) error {
		return func(ps PiStore) error { return ps.WriteRows([]int32{0, id}, make([]float64, 2*k)) }
	}
	cases := []struct {
		name string
		call func(PiStore) error
	}{
		{"read id=N", read(n)},
		{"read id=-1", read(-1)},
		{"write id=N", write(n)},
		{"write id=-1", write(-1)},
		{"write short phi", func(ps PiStore) error { return ps.WriteRows([]int32{0, 1}, make([]float64, 2*k-1)) }},
	}
	for _, b := range backends {
		for _, c := range cases {
			t.Run(b.name+"/"+c.name, func(t *testing.T) {
				b.with(t, func(ps PiStore) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panicked instead of returning an error: %v", r)
						}
					}()
					if err := c.call(ps); err == nil {
						t.Fatal("bad argument accepted")
					}
				})
			})
		}
	}
}

// twoRankStores builds a 2-rank fabric with one DKVStore per rank, both
// initialised with a deterministic per-key row, and hands rank 0's store to
// the body (rank 1's server goroutine answers in the background).
func twoRankStores(t *testing.T, n, k int, body func(s0 *DKVStore)) {
	t.Helper()
	f, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stores := make([]*DKVStore, 2)
	for r := 0; r < 2; r++ {
		st, err := NewDKV(f.Endpoint(r), n, k, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[r] = st
		st.InitOwned(func(a int, pi []float32) float64 {
			for j := range pi {
				pi[j] = float32(a*10 + j)
			}
			return float64(a)
		})
	}
	body(stores[0])
}

func checkInitRow(t *testing.T, rows *Rows, i int, a int32, k int) {
	t.Helper()
	if rows.PhiSum[i] != float64(a) {
		t.Fatalf("key %d: Σφ = %v, want %v", a, rows.PhiSum[i], float64(a))
	}
	for j := 0; j < k; j++ {
		if want := float32(int(a)*10 + j); rows.PiRow(i)[j] != want {
			t.Fatalf("key %d: π[%d] = %v, want %v", a, j, rows.PiRow(i)[j], want)
		}
	}
}

func TestDKVStoreReadWrite(t *testing.T) {
	const n, k = 20, 3
	twoRankStores(t, n, k, func(s *DKVStore) {
		// Mixed local and remote keys, with repeats.
		ids := []int32{0, 15, 3, 19, 15}
		var rows Rows
		if err := s.ReadRows(ids, &rows); err != nil {
			t.Fatal(err)
		}
		for i, a := range ids {
			checkInitRow(t, &rows, i, a, k)
		}

		// Write a remote and a local row, read them back.
		phi := []float64{1, 2, 5, 3, 3, 2}
		wids := []int32{18, 2}
		if err := s.WriteRows(wids, phi); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadRows(wids, &rows); err != nil {
			t.Fatal(err)
		}
		for i := range wids {
			wantPi, wantSum := refWrite(phi[i*k : (i+1)*k])
			if rows.PhiSum[i] != wantSum {
				t.Fatalf("row %d: Σφ = %v, want %v", i, rows.PhiSum[i], wantSum)
			}
			for j, w := range wantPi {
				if rows.PiRow(i)[j] != w {
					t.Fatalf("row %d: π[%d] = %v, want %v", i, j, rows.PiRow(i)[j], w)
				}
			}
		}
	})
}

// TestDKVWritePiRows: the restore primitive lands verbatim rows on their
// owners, local and remote, over rows a read has already fetched.
func TestDKVWritePiRows(t *testing.T) {
	const n, k = 20, 3
	twoRankStores(t, n, k, func(s *DKVStore) {
		ids := []int32{18, 2} // row 18 is remote
		var rows Rows
		if err := s.ReadRows(ids, &rows); err != nil {
			t.Fatal(err)
		}
		pi := []float32{0.25, 0.5, 0.25, 0.125, 0.375, 0.5}
		if err := s.WritePiRows(ids, pi, []float64{42.5, 7}); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadRows(ids, &rows); err != nil {
			t.Fatal(err)
		}
		for i, sum := range []float64{42.5, 7} {
			if rows.PhiSum[i] != sum {
				t.Fatalf("row %d: Σφ = %v, want %v (stale read, or not written verbatim)", ids[i], rows.PhiSum[i], sum)
			}
			for j := 0; j < k; j++ {
				if rows.PiRow(i)[j] != pi[i*k+j] {
					t.Fatalf("row %d: π[%d] = %v, want %v", ids[i], j, rows.PiRow(i)[j], pi[i*k+j])
				}
			}
		}
	})
}
