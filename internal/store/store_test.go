package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dkv"
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
		st, err := dkvOver(f.Endpoint(r), n, k, 1, ownedLocal(k, initPattern))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[r] = st
	}
	body(stores[0])
}

// dkvOver builds a rank's DKVStore over the partition owned builds for the
// rows dkv.Range assigns it.
func dkvOver(conn transport.Conn, n, k, threads int, owned func(lo, hi int) (PiStore, error)) (*DKVStore, error) {
	lo, hi := dkv.Range(n, conn.Size(), conn.Rank())
	ps, err := owned(lo, hi)
	if err != nil {
		return nil, err
	}
	return NewDKV(conn, n, k, threads, nil, ps)
}

// ownedLocal builds a DKVStore partition as a LocalStore holding initRow's
// rows for global rows [lo, hi).
func ownedLocal(k int, initRow func(a int, pi []float32) float64) func(lo, hi int) (PiStore, error) {
	return func(lo, hi int) (PiStore, error) {
		ls := NewLocal(make([]float32, (hi-lo)*k), make([]float64, hi-lo), k, 1)
		for a := lo; a < hi; a++ {
			ls.phiSum[a-lo] = initRow(a, ls.pi[(a-lo)*k:(a-lo+1)*k])
		}
		return ls, nil
	}
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

// TestDKVStoreReadsInChunks: a batch whose owned share, and whose reply
// from the peer, each span several BatchRows chunks lands every row at its
// position, the repeats and the order included.
func TestDKVStoreReadsInChunks(t *testing.T) {
	const n, k = 5*BatchRows + 7, 2
	twoRankStores(t, n, k, func(s *DKVStore) {
		ids := make([]int32, 0, n+2)
		for a := n - 1; a >= 0; a-- {
			ids = append(ids, int32(a))
		}
		ids = append(ids, 1, n-1)
		var rows Rows
		if err := s.ReadRows(ids, &rows); err != nil {
			t.Fatal(err)
		}
		for i, a := range ids {
			checkInitRow(t, &rows, i, a, k)
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

// TestDKVPartitionIsAnyPiStore: a rank's DKV partition is an ordinary
// PiStore, so two ranks whose partitions are MmapStores hold the same bytes
// as two whose partitions are LocalStores after the same writes. Both ranks
// write — mixed owned and remote rows through WriteRows and WritePiRows —
// and both sweep the table, so the owned path at a partition that starts at
// row 0 and at one that does not, and the server's encode and apply, all
// run over both backends.
func TestDKVPartitionIsAnyPiStore(t *testing.T) {
	const n, k, steps = 97, 5, 8
	ownedMmap := func(t *testing.T) func(lo, hi int) (PiStore, error) {
		return func(lo, hi int) (PiStore, error) {
			ms, err := CreateMmap(t.TempDir(), hi-lo, k, MmapOptions{ShardRows: 16})
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { ms.Close() })
			if err := ms.InitRows(func(a int, pi []float32) float64 { return initPattern(lo+a, pi) }); err != nil {
				return nil, err
			}
			_, err = ms.Seal()
			return ms, err
		}
	}
	// run applies the write sequence to a 2-rank store over owned's
	// partitions and returns each rank's sweep, π bits then Σφ bits.
	run := func(t *testing.T, owned func(lo, hi int) (PiStore, error)) [2][]byte {
		f, err := transport.NewFabric(2)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var stores [2]*DKVStore
		for r := range stores {
			if stores[r], err = dkvOver(f.Endpoint(r), n, k, 2, owned); err != nil {
				t.Fatal(err)
			}
			defer stores[r].Close()
		}
		rng := rand.New(rand.NewSource(43))
		for step := 0; step < steps; step++ {
			ps := stores[step%2]
			ids := make([]int32, 0, 24)
			for _, a := range rng.Perm(n)[:24] {
				ids = append(ids, int32(a))
			}
			if step%3 == 2 {
				pi := make([]float32, len(ids)*k)
				sums := make([]float64, len(ids))
				for i := range pi {
					pi[i] = rng.Float32()
				}
				for i := range sums {
					sums[i] = rng.Float64() * 100
				}
				if err := ps.WritePiRows(ids, pi, sums); err != nil {
					t.Fatal(err)
				}
				continue
			}
			phi := make([]float64, len(ids)*k)
			for i := range phi {
				phi[i] = rng.Float64() + 0.01
			}
			if err := ps.WriteRows(ids, phi); err != nil {
				t.Fatal(err)
			}
		}
		var out [2][]byte
		for r, ps := range stores {
			pi := make([]float32, n*k)
			sums := make([]float64, n)
			if err := Sweep(ps, pi, func(lo int, rows *Rows) error {
				copy(sums[lo:], rows.PhiSum)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for _, v := range pi {
				out[r] = binary.LittleEndian.AppendUint32(out[r], math.Float32bits(v))
			}
			for _, v := range sums {
				out[r] = binary.LittleEndian.AppendUint64(out[r], math.Float64bits(v))
			}
		}
		return out
	}
	local := run(t, ownedLocal(k, initPattern))
	mmap := run(t, ownedMmap(t))
	for r := range local {
		if !bytes.Equal(local[r], mmap[r]) {
			t.Fatalf("rank %d sweeps different bytes over mmap partitions than over local ones", r)
		}
	}
	if bytes.Equal(local[0], run(t, ownedLocal(k, func(a int, pi []float32) float64 { return initPattern(a+1, pi) }))[0]) {
		t.Fatal("the comparison cannot tell two different tables apart")
	}
}

// BenchmarkOneRankRead reads 26 000 random rows of a 20 000 × 64 table at
// one thread: from a LocalStore, and from a one-rank DKVStore over the same
// LocalStore as its partition, where every batch is owned and lands straight
// in the caller's Rows. The two should stay within 1.2× of each other.
func BenchmarkOneRankRead(b *testing.B) {
	const n, k, keys = 20_000, 64, 26_000
	rng := rand.New(rand.NewSource(21))
	ids := make([]int32, keys)
	for i := range ids {
		ids[i] = int32(rng.Intn(n))
	}
	table := func() *LocalStore {
		pi := make([]float32, n*k)
		for i := range pi {
			pi[i] = rng.Float32()
		}
		return NewLocal(pi, make([]float64, n), k, 1)
	}
	f, err := transport.NewFabric(1)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ds, err := NewDKV(f.Endpoint(0), n, k, 1, nil, table())
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	for _, c := range []struct {
		name string
		ps   PiStore
	}{{"local", table()}, {"dkv", ds}} {
		b.Run(c.name, func(b *testing.B) {
			var dst Rows
			for i := 0; i < b.N; i++ {
				if err := c.ps.ReadRows(ids, &dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
