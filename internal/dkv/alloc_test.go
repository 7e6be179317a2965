//go:build !race

// The race detector's sync.Pool drops puts at random, so frame reuse — and
// with it the allocation count — is only defined without it.

package dkv_test

import (
	"runtime"
	"testing"
)

// TestDKVRoundTripAllocs pins the garbage of BenchmarkDKVReadWrite's round
// trip (a 512-row read and write across two in-process ranks) in steady
// state: request scratch, reply buffers and frames are all reused, so what
// is left is the mailbox's bookkeeping. Before the read path reused its
// buffers the round trip made 90 allocations and 1.14 MB of garbage.
func TestDKVRoundTripAllocs(t *testing.T) {
	const maxAllocs, maxBytes, runs = 20, 16 << 10, 100
	step, _ := roundTrip(t)
	run := func() {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(runs, run); allocs > maxAllocs {
		t.Errorf("round trip makes %v allocations, want ≤ %d", allocs, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > maxBytes {
		t.Errorf("round trip allocates %d B, want ≤ %d", perOp, maxBytes)
	}
}
