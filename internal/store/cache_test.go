package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/transport"
)

// --- rowCache unit tests (the ring-arena LRU that replaced the FIFO slice) ---

func cacheCheck(t *testing.T, c *rowCache, wantLen int) {
	t.Helper()
	if c.len() != wantLen {
		t.Fatalf("cache holds %d rows, want %d", c.len(), wantLen)
	}
	if rl := c.ringLen(); rl != c.len() {
		t.Fatalf("recency ring has %d nodes but index has %d — structures drifted", rl, c.len())
	}
}

func TestRowCacheLRUOrder(t *testing.T) {
	c := newRowCache(3, 4)
	row := func(id int32) []byte { return []byte{byte(id), 0, 0, 0} }
	for _, id := range []int32{1, 2, 3} {
		if ev := c.put(id, row(id)); ev {
			t.Fatalf("insert %d evicted below capacity", id)
		}
	}
	cacheCheck(t, c, 3)

	// Touch 1 (the LRU) so 2 becomes the eviction victim.
	if v, ok := c.get(1); !ok || v[0] != 1 {
		t.Fatalf("get(1) = %v, %v", v, ok)
	}
	if ev := c.put(4, row(4)); !ev {
		t.Fatal("insert at capacity did not evict")
	}
	if c.contains(2) {
		t.Fatal("evicted 2's slot, but 2 is still indexed")
	}
	for _, id := range []int32{1, 3, 4} {
		if !c.contains(id) {
			t.Fatalf("row %d should have survived", id)
		}
	}
	cacheCheck(t, c, 3)
}

func TestRowCacheRemoveAndReuse(t *testing.T) {
	c := newRowCache(2, 4)
	row := func(id int32) []byte { return []byte{byte(id), 0, 0, 0} }
	c.put(1, row(1))
	c.put(2, row(2))
	if !c.remove(1) {
		t.Fatal("remove(1) found nothing")
	}
	if c.remove(1) {
		t.Fatal("second remove(1) claimed success")
	}
	cacheCheck(t, c, 1)
	// The freed slot must be reused without evicting the survivor.
	if ev := c.put(3, row(3)); ev {
		t.Fatal("insert into freed slot evicted")
	}
	cacheCheck(t, c, 2)
	if !c.contains(2) || !c.contains(3) {
		t.Fatal("expected rows 2 and 3 cached")
	}
	c.clear()
	cacheCheck(t, c, 0)
	if ev := c.put(4, row(4)); ev {
		t.Fatal("insert after clear evicted")
	}
	cacheCheck(t, c, 1)
}

// TestRowCacheSustainedChurn is the standalone ring-buffer regression: the
// old FIFO advanced with `fifo = fifo[1:]`, pinning the backing array head
// and reallocating under sustained traffic. The arena-backed ring must
// survive many capacities' worth of churn with the index and ring in
// lockstep and exact eviction counts.
func TestRowCacheSustainedChurn(t *testing.T) {
	const capRows = 8
	c := newRowCache(capRows, 4)
	evictions := 0
	for i := int32(0); i < 50*capRows; i++ {
		if c.put(i, []byte{byte(i), 0, 0, 0}) {
			evictions++
		}
		cacheCheck(t, c, min(int(i)+1, capRows))
	}
	if want := 50*capRows - capRows; evictions != want {
		t.Fatalf("evictions = %d, want exactly %d", evictions, want)
	}
	// The survivors are exactly the last capRows ids, in LRU order.
	for i := int32(49 * capRows); i < 50*capRows; i++ {
		if !c.contains(i) {
			t.Fatalf("row %d missing after churn", i)
		}
	}
}

func TestDoorkeeperAdmitsOnSecondSighting(t *testing.T) {
	d := newDoorkeeper(4)
	if d.admit(7) {
		t.Fatal("first sighting admitted")
	}
	if !d.admit(7) {
		t.Fatal("second sighting rejected")
	}
	// The sighting was consumed: the next one starts over.
	if d.admit(7) {
		t.Fatal("sighting not consumed by admission")
	}
	// A sighting older than the window is forgotten.
	if d.admit(1) {
		t.Fatal("first sighting of 1 admitted")
	}
	for _, id := range []int32{2, 3, 4, 5} {
		d.admit(id)
	}
	if d.admit(1) {
		t.Fatal("sighting of 1 survived a full window of churn")
	}
}

// --- DKVStore-level cache tests ---

// twoRankCfgStores is twoRankStores with an explicit cache configuration on
// rank 0's store (rank 1 serves with the cache off; only rank 0 drives
// traffic in these tests).
func twoRankCfgStores(t *testing.T, n, k int, cc CacheConfig, body func(s0 *DKVStore)) {
	t.Helper()
	f, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stores := make([]*DKVStore, 2)
	for r := 0; r < 2; r++ {
		rcc := cc
		if r == 1 {
			rcc = CacheConfig{}
		}
		st, err := NewDKVCache(f.Endpoint(r), n, k, 1, rcc, nil)
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

// TestCacheWriteInvalidationAccounting is the regression for the FIFO
// accounting bug: WriteRows used to delete written keys from the cache map
// but leave them in the eviction queue, so (a) the queue and the map
// drifted apart, (b) evicting an already-deleted id bumped the eviction
// counter for a no-op while the live cache shrank below capacity, and (c) a
// re-inserted written key produced a duplicate queue entry whose earlier
// eviction deleted the fresh copy too soon. This test interleaves WriteRows
// with inserts and asserts index/ring agreement and exact eviction counts
// at every step; it fails on the old code at the first cacheSizes check
// after WriteRows.
func TestCacheWriteInvalidationAccounting(t *testing.T) {
	const n, k = 20, 2
	twoRankCfgStores(t, n, k, CacheConfig{Rows: 3}, func(s *DKVStore) {
		var rows Rows
		read := func(ids ...int32) {
			t.Helper()
			if err := s.ReadRows(ids, &rows); err != nil {
				t.Fatal(err)
			}
		}
		sizes := func(want int) {
			t.Helper()
			idx, ring := s.cacheSizes()
			if idx != ring {
				t.Fatalf("cache index has %d entries but eviction structure has %d — accounting drifted", idx, ring)
			}
			if idx != want {
				t.Fatalf("cache holds %d rows, want %d", idx, want)
			}
		}

		// Fill the cache with three remote rows (rank 1 owns 10..19).
		read(15, 16, 17)
		sizes(3)

		// Write two of them: both copies must leave the eviction structure
		// too, and count as invalidations, not evictions.
		if err := s.WriteRows([]int32{15, 16}, []float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		sizes(1)
		cs := s.CacheStats()
		if cs.Invalidations != 2 {
			t.Fatalf("invalidations = %d, want 2", cs.Invalidations)
		}
		if cs.Evictions != 0 {
			t.Fatalf("evictions = %d, want 0 — writes must not charge the eviction counter", cs.Evictions)
		}

		// Refill into the freed slots: no evictions may fire while the
		// cache is below capacity (the old code evicted the ghosts of 15
		// and 16 here).
		read(18, 19)
		sizes(3)
		if cs := s.CacheStats(); cs.Evictions != 0 {
			t.Fatalf("evictions = %d after refilling freed slots, want 0", cs.Evictions)
		}

		// Re-insert a written key at capacity: exactly one real eviction, of
		// the true LRU (17). The old code would have double-counted here.
		read(15)
		sizes(3)
		cs = s.CacheStats()
		if cs.Evictions != 1 {
			t.Fatalf("evictions = %d after one over-capacity insert, want exactly 1", cs.Evictions)
		}
		// One more row evicts the next LRU (18) — never the fresh 15.
		read(10)
		sizes(3)
		cs = s.CacheStats()
		if cs.Evictions != 2 {
			t.Fatalf("evictions = %d, want exactly 2", cs.Evictions)
		}
		before := s.kv.Stats().RemoteKeys.Load()
		read(15, 19) // both must still be cached (17 and 18 were the victims)
		if got := s.kv.Stats().RemoteKeys.Load() - before; got != 0 {
			t.Fatalf("re-read of surviving rows fetched %d remote keys, want 0", got)
		}
	})
}

// TestDKVCacheAllHitBatchShortCircuits pins the ReadRowsAsync fast path: a
// batch served entirely from the cache must not touch the DKV layer at all —
// no request, no future, no empty round trip.
func TestDKVCacheAllHitBatchShortCircuits(t *testing.T) {
	const n, k = 20, 3
	twoRankCfgStores(t, n, k, CacheConfig{Rows: 8}, func(s *DKVStore) {
		remote := []int32{15, 16, 17}
		var rows Rows
		if err := s.ReadRows(remote, &rows); err != nil {
			t.Fatal(err)
		}
		reqBefore := s.kv.Stats().Requests.Load()
		pend, err := s.ReadRowsAsync(remote, &rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, isDone := pend.(donePending); !isDone {
			t.Fatalf("all-hit batch returned %T, want the immediate donePending", pend)
		}
		if err := pend.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := s.kv.Stats().Requests.Load() - reqBefore; got != 0 {
			t.Fatalf("all-hit batch issued %d DKV requests, want 0", got)
		}
		for i, a := range remote {
			checkInitRow(t, &rows, i, a, k)
		}
	})
}

func TestDKVCacheAdmit2Policy(t *testing.T) {
	const n, k = 20, 2
	twoRankCfgStores(t, n, k, CacheConfig{Rows: 4, Policy: CachePolicyAdmit2}, func(s *DKVStore) {
		var rows Rows
		// First read: miss, sighted but not admitted. Second read: miss
		// again (still uncached), now admitted. Third read: hit.
		for i := 0; i < 3; i++ {
			if err := s.ReadRows([]int32{15}, &rows); err != nil {
				t.Fatal(err)
			}
		}
		cs := s.CacheStats()
		if cs.Misses != 2 || cs.Hits != 1 {
			t.Fatalf("admit2: hits=%d misses=%d, want 1/2", cs.Hits, cs.Misses)
		}
	})
}

func TestDKVCacheDegreeBypassesAdmit2(t *testing.T) {
	const n, k = 20, 2
	cc := CacheConfig{Rows: 4, Policy: CachePolicyAdmit2, MinDegree: 5}
	twoRankCfgStores(t, n, k, cc, func(s *DKVStore) {
		deg := make([]int32, n)
		deg[15] = 9 // clears MinDegree; 16 stays at 0
		s.SetDegrees(deg)
		var rows Rows
		for i := 0; i < 2; i++ {
			if err := s.ReadRows([]int32{15, 16}, &rows); err != nil {
				t.Fatal(err)
			}
		}
		cs := s.CacheStats()
		// 15 is admitted on the first miss (degree bypass) and hits on the
		// second read; 16 needs two sightings and never hits here.
		if cs.Hits != 1 || cs.Misses != 3 {
			t.Fatalf("degree bypass: hits=%d misses=%d, want 1/3", cs.Hits, cs.Misses)
		}
	})
}

func TestDKVCacheRejectsUnknownPolicy(t *testing.T) {
	f, err := transport.NewFabric(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := NewDKVCache(f.Endpoint(0), 10, 2, 1, CacheConfig{Rows: 4, Policy: "mru"}, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestDKVCacheCrossIterWriteSetInvalidation exercises the cross-iteration
// mode at store level: Flush must drop exactly the keys named by the
// write-set exchange and keep every other hot row (per-phase mode would
// drop them all).
func TestDKVCacheCrossIterWriteSetInvalidation(t *testing.T) {
	const n, k = 20, 2
	cc := CacheConfig{Rows: 8, CrossIter: true}
	twoRankCfgStores(t, n, k, cc, func(s *DKVStore) {
		var exchanged [][]int32
		peerWrites := []int32{}
		s.SetWriteSetExchange(func(local []int32) ([]int32, error) {
			exchanged = append(exchanged, append([]int32(nil), local...))
			return append(append([]int32(nil), local...), peerWrites...), nil
		})

		var rows Rows
		if err := s.ReadRows([]int32{15, 16, 17}, &rows); err != nil {
			t.Fatal(err)
		}

		// Barrier with nothing written anywhere: everything survives.
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		before := s.kv.Stats().RemoteKeys.Load()
		if err := s.ReadRows([]int32{15, 16, 17}, &rows); err != nil {
			t.Fatal(err)
		}
		if got := s.kv.Stats().RemoteKeys.Load() - before; got != 0 {
			t.Fatalf("post-quiet-barrier read fetched %d remote keys, want 0 (cache must survive)", got)
		}

		// A peer writes 16; our own WriteRows names 17. After the exchange
		// both are gone, 15 survives.
		peerWrites = []int32{16}
		if err := s.WriteRows([]int32{17}, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(exchanged) != 2 {
			t.Fatalf("exchange ran %d times, want 2 (every Flush is a collective)", len(exchanged))
		}
		if len(exchanged[1]) != 1 || exchanged[1][0] != 17 {
			t.Fatalf("second exchange carried local writes %v, want [17]", exchanged[1])
		}
		before = s.kv.Stats().RemoteKeys.Load()
		if err := s.ReadRows([]int32{15}, &rows); err != nil {
			t.Fatal(err)
		}
		if got := s.kv.Stats().RemoteKeys.Load() - before; got != 0 {
			t.Fatal("unwritten row 15 did not survive the write-set barrier")
		}
		checkInitRow(t, &rows, 0, 15, k)

		before = s.kv.Stats().RemoteKeys.Load()
		if err := s.ReadRows([]int32{16, 17}, &rows); err != nil {
			t.Fatal(err)
		}
		if got := s.kv.Stats().RemoteKeys.Load() - before; got != 2 {
			t.Fatalf("written rows refetched %d remote keys, want 2", got)
		}
		// 17 was rewritten: the refetched bytes must be the new value.
		wantPi, wantSum := refWrite([]float64{1, 2})
		if rows.PhiSum[1] != wantSum || rows.PiRow(1)[0] != wantPi[0] {
			t.Fatalf("stale bytes for rewritten row 17: Σφ=%v π0=%v", rows.PhiSum[1], rows.PiRow(1)[0])
		}

		// The write set must have been consumed: a third Flush exchanges
		// an empty set and drops nothing.
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(exchanged[2]) != 0 {
			t.Fatalf("third exchange carried %v, want an empty set", exchanged[2])
		}
	})
}

// TestDKVCacheCrossIterWithoutExchangeFallsBack pins the conservative
// fallback: cross-iteration mode without an installed exchange hook must
// blanket-drop at Flush (correctness over locality).
func TestDKVCacheCrossIterWithoutExchangeFallsBack(t *testing.T) {
	const n, k = 20, 2
	twoRankCfgStores(t, n, k, CacheConfig{Rows: 8, CrossIter: true}, func(s *DKVStore) {
		var rows Rows
		if err := s.ReadRows([]int32{15, 16}, &rows); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		before := s.kv.Stats().RemoteKeys.Load()
		if err := s.ReadRows([]int32{15, 16}, &rows); err != nil {
			t.Fatal(err)
		}
		if got := s.kv.Stats().RemoteKeys.Load() - before; got != 2 {
			t.Fatalf("post-fallback-Flush read fetched %d remote keys, want 2", got)
		}
	})
}

// TestDKVCacheConcurrentStress hammers cacheLookup/cacheInsert/WriteRows/
// Flush from concurrent goroutines; it exists to run under -race (make
// race includes internal/store) and finishes with an accounting check.
func TestDKVCacheConcurrentStress(t *testing.T) {
	const n, k = 64, 3
	twoRankCfgStores(t, n, k, CacheConfig{Rows: 8, CrossIter: true}, func(s *DKVStore) {
		s.SetWriteSetExchange(func(local []int32) ([]int32, error) { return local, nil })
		const iters = 300
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var rows Rows
				ids := make([]int32, 4)
				for i := 0; i < iters; i++ {
					for j := range ids {
						ids[j] = int32(32 + (g*7+i*3+j)%32) // rank 1's shard
					}
					if err := s.ReadRows(ids, &rows); err != nil {
						errs[g] = fmt.Errorf("read %v: %w", ids, err)
						return
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			phi := make([]float64, k)
			for i := 0; i < iters; i++ {
				for j := range phi {
					phi[j] = float64(i + j + 1)
				}
				if err := s.WriteRows([]int32{int32(32 + i%32)}, phi); err != nil {
					errs[2] = fmt.Errorf("write %d: %w", i, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				if err := s.Flush(); err != nil {
					errs[3] = fmt.Errorf("flush %d: %w", i, err)
					return
				}
			}
		}()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		idx, ring := s.cacheSizes()
		if idx != ring {
			t.Fatalf("after stress: index %d vs ring %d — accounting drifted", idx, ring)
		}
	})
}
