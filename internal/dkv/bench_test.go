package dkv_test

import (
	"testing"

	"repro/internal/dkv"
	"repro/internal/store"
	"repro/internal/transport"
)

// roundTrip sets up two in-process ranks and returns one batched round trip:
// rank 0 reads, then writes, 512 π rows (K = 64) that rank 1 owns. It also
// returns the bytes the round trip moves.
func roundTrip(tb testing.TB) (step func() error, moved int) {
	const n, batch = 1024, 512
	rb := store.RowBytes(64)
	f, err := transport.NewFabric(2)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.Close)
	stores := make([]*dkv.Store, 2)
	for r := range stores {
		if stores[r], err = dkv.New(f.Endpoint(r), n, rb); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { stores[r].Close() })
	}
	lo, hi := stores[1].OwnedRange()
	keys := make([]int32, batch)
	for i := range keys {
		keys[i] = int32(lo + i*7%(hi-lo)) // rank 1's rows, scattered
	}
	buf := make([]byte, batch*rb)
	return func() error {
		if err := stores[0].ReadBatch(keys, buf); err != nil {
			return err
		}
		return stores[0].WriteBatch(keys, buf)
	}, 2 * len(buf)
}

// BenchmarkDKVReadWrite times one batched round trip on two in-process
// ranks: rank 0 reads, then writes, 512 π rows (K = 64) that rank 1 owns.
// TestDKVRoundTripAllocs pins its allocations.
func BenchmarkDKVReadWrite(b *testing.B) {
	step, moved := roundTrip(b)
	b.ReportAllocs()
	b.SetBytes(int64(moved))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}
