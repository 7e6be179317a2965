package store

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// tierFixture: a TieredStore over an mmap base of n rows initialised with the
// deterministic row pattern checkInitRow expects.
func tierFixture(t *testing.T, n, k int) *TieredStore {
	t.Helper()
	base, err := CreateMmap(t.TempDir(), n, k, MmapOptions{ShardRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { base.Close() })
	if err := base.InitRows(func(a int, pi []float32) float64 {
		for j := range pi {
			pi[j] = float32(a*10 + j)
		}
		return float64(a)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Seal(); err != nil {
		t.Fatal(err)
	}
	tier, err := NewTiered(base, nil, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

func TestTieredStoreSingleNode(t *testing.T) {
	const n, k = 64, 3
	tier := tierFixture(t, n, k)
	if tier.NumRows() != n || tier.K() != k {
		t.Fatalf("dims %d×%d, want %d×%d", tier.NumRows(), tier.K(), n, k)
	}

	ids := []int32{3, 17, 42}
	var rows Rows
	if err := tier.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	for i, a := range ids {
		checkInitRow(t, &rows, i, a, k)
	}

	// Writes take SetPhiRow arithmetic.
	phi := []float64{1, 2, 5}
	if err := tier.WriteRows([]int32{17}, phi); err != nil {
		t.Fatal(err)
	}
	if err := tier.ReadRows([]int32{17}, &rows); err != nil {
		t.Fatal(err)
	}
	wantPi, wantSum := refWrite(phi)
	if math.Float64bits(rows.PhiSum[0]) != math.Float64bits(wantSum) ||
		math.Float32bits(rows.PiRow(0)[0]) != math.Float32bits(wantPi[0]) {
		t.Fatalf("written row: Σφ=%v π0=%v, want %v/%v", rows.PhiSum[0], rows.PiRow(0)[0], wantSum, wantPi[0])
	}

	// Out-of-range keys fail typed.
	if err := tier.ReadRows([]int32{int32(n)}, &rows); err == nil {
		t.Fatal("out-of-range key accepted")
	}

	// The base tier serves every row: no hits, one miss per row read.
	if st := tier.Stats(); st != (TierStats{HotMisses: int64(len(ids)) + 2}) {
		t.Fatalf("stats = %+v, want 0 hits and %d misses", st, len(ids)+2)
	}
}

// TestTieredStoreRejectsRemote: the tier has no remote arm — a non-nil
// remote is a construction error, not a store that routes ids past the base.
func TestTieredStoreRejectsRemote(t *testing.T) {
	base := tierFixture(t, 8, 3)
	remote := NewLocal(make([]float32, 4*3), make([]float64, 4), 3, 1)
	if _, err := NewTiered(base, remote, 0, 1, nil); err == nil {
		t.Fatal("NewTiered accepted a remote tier")
	}
	if _, err := NewTiered(nil, nil, 0, 1, nil); err == nil {
		t.Fatal("NewTiered accepted a missing base tier")
	}
	if _, err := NewTiered(base, nil, -1, 1, nil); err == nil {
		t.Fatal("NewTiered accepted a negative hot-row count")
	}
}

// TestTieredStoreConcurrentStress drives readers and writers at the tier
// concurrently (disjoint key ranges, as the phase discipline
// guarantees) — the -race harness for the forwarding path and its counter.
func TestTieredStoreConcurrentStress(t *testing.T) {
	const n, k = 256, 3
	tier := tierFixture(t, n, k)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers sweep the lower half of the table.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int32) {
			defer wg.Done()
			var rows Rows
			ids := make([]int32, 8)
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range ids {
					ids[j] = (seed*31 + int32(iter*8+j)) % (n / 2)
				}
				if err := tier.ReadRows(ids, &rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(int32(r))
	}
	// Writers churn the upper half.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int32) {
			defer wg.Done()
			phi := []float64{1, 2, 3}
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				id := n/2 + (seed*17+int32(iter))%(n/2)
				phi[0] = float64(iter%7 + 1)
				if err := tier.WriteRows([]int32{id}, phi); err != nil {
					t.Error(err)
					return
				}
			}
		}(int32(w))
	}
	// A driver lets them race for a bounded stretch, reading the tier's
	// counter as they bump it, then stops them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 200 && tier.Stats().HotMisses < 4000; i++ {
			runtime.Gosched()
		}
	}()
	wg.Wait()

	// Steady state must still read exactly.
	var rows Rows
	if err := tier.ReadRows([]int32{1}, &rows); err != nil {
		t.Fatal(err)
	}
	checkInitRow(t, &rows, 0, 1, k)
}

func TestTieredStoreWritePiRows(t *testing.T) {
	const n, k = 48, 3
	tier := tierFixture(t, n, k)
	ids := []int32{5, 40}
	var rows Rows
	if err := tier.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	pi := []float32{0.2, 0.3, 0.5, 0.1, 0.8, 0.1}
	if err := tier.WritePiRows(ids, pi, []float64{7.5, 9.25}); err != nil {
		t.Fatal(err)
	}
	if err := tier.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	if rows.PhiSum[0] != 7.5 || rows.PiRow(0)[2] != 0.5 {
		t.Fatalf("verbatim row 5 mangled (or served stale): Σφ=%v π=%v", rows.PhiSum[0], rows.PiRow(0))
	}
	if rows.PhiSum[1] != 9.25 || rows.PiRow(1)[1] != 0.8 {
		t.Fatalf("verbatim row 40 mangled (or served stale): Σφ=%v π=%v", rows.PhiSum[1], rows.PiRow(1))
	}
}
