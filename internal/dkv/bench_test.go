package dkv_test

import (
	"testing"

	"repro/internal/dkv"
	"repro/internal/store"
	"repro/internal/transport"
)

// BenchmarkDKVReadWrite times one batched round trip on two in-process
// ranks: rank 0 reads, then writes, 512 π rows (K = 64) that rank 1 owns.
// allocs/op is the floor a zero-copy DKV path ratchets down from.
func BenchmarkDKVReadWrite(b *testing.B) {
	const n, batch = 1024, 512
	rb := store.RowBytes(64)
	f, err := transport.NewFabric(2)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	stores := make([]*dkv.Store, 2)
	for r := range stores {
		if stores[r], err = dkv.New(f.Endpoint(r), n, rb); err != nil {
			b.Fatal(err)
		}
		defer stores[r].Close()
	}
	lo, hi := stores[1].OwnedRange()
	keys := make([]int32, batch)
	for i := range keys {
		keys[i] = int32(lo + i*7%(hi-lo)) // rank 1's rows, scattered
	}
	buf := make([]byte, batch*rb)
	b.ReportAllocs()
	b.SetBytes(int64(2 * len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stores[0].ReadBatch(keys, buf); err != nil {
			b.Fatal(err)
		}
		if err := stores[0].WriteBatch(keys, buf); err != nil {
			b.Fatal(err)
		}
	}
}
