package store

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/transport"
)

// TestLocalSnapshotIsSealed: a snapshot taken from a LocalStore must be a
// full copy — later writes to the store must not leak into it.
func TestLocalSnapshotIsSealed(t *testing.T) {
	const n, k = 6, 3
	pi := make([]float32, n*k)
	phiSum := make([]float64, n)
	for a := 0; a < n; a++ {
		phiSum[a] = 1
		for j := 0; j < k; j++ {
			pi[a*k+j] = float32(a*k+j) / float32(n*k)
		}
	}
	ls := NewLocal(pi, phiSum, k, 1)
	beta := []float64{0.1, 0.2, 0.3}
	snap, err := ls.Snapshot(7, beta)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 7 || snap.N != n || snap.K != k {
		t.Fatalf("snapshot header = v%d %dx%d, want v7 %dx%d", snap.Version, snap.N, snap.K, n, k)
	}
	if snap.SealedAt.IsZero() {
		t.Fatal("SealedAt not stamped")
	}
	before := append([]float32(nil), snap.Pi...)

	// Overwrite every row in the live store; the sealed slab must not move.
	phi := make([]float64, n*k)
	ids := make([]int32, n)
	for a := range ids {
		ids[a] = int32(a)
		for j := 0; j < k; j++ {
			phi[a*k+j] = float64(a + j + 1)
		}
	}
	if err := ls.WriteRows(ids, phi); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if snap.Pi[i] != before[i] {
			t.Fatalf("snapshot π[%d] changed after store write: %v -> %v", i, before[i], snap.Pi[i])
		}
	}
	beta[0] = 99 // caller's β slice must have been copied too
	if snap.Beta[0] != 0.1 {
		t.Fatalf("snapshot β aliases the caller's slice")
	}
}

// TestDKVSnapshotGathersFullView: on a 2-rank fabric, the serving rank's
// snapshot must assemble both shards and match the per-key init exactly,
// without touching the hot-row cache.
func TestDKVSnapshotGathersFullView(t *testing.T) {
	const n, k = 37, 4
	f, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stores := make([]*DKVStore, 2)
	for r := 0; r < 2; r++ {
		st, err := NewDKVCache(f.Endpoint(r), n, k, 1, CacheConfig{Rows: 8}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[r] = st
		st.InitOwned(func(a int, pi []float32) float64 {
			for j := range pi {
				pi[j] = float32(a*100 + j)
			}
			return float64(a)
		})
	}
	snap, err := stores[0].Snapshot(3, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < n; a++ {
		row := snap.PiRow(a)
		for j := 0; j < k; j++ {
			if row[j] != float32(a*100+j) {
				t.Fatalf("snapshot π[%d][%d] = %v, want %v", a, j, row[j], float32(a*100+j))
			}
		}
	}
	// The gather bypasses the cache: no lookups, no insertions.
	if cs := stores[0].CacheStats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("snapshot gather touched the hot-row cache: %+v", cs)
	}
	if idx, _ := stores[0].cacheSizes(); idx != 0 {
		t.Fatalf("snapshot gather populated the hot-row cache: %d rows", idx)
	}
}

// TestPublisherFlipAndMonotonicity: Current flips atomically to the
// published snapshot, subscribers run before visibility, and non-increasing
// versions are rejected.
func TestPublisherFlipAndMonotonicity(t *testing.T) {
	p := NewPublisher()
	if p.Current() != nil {
		t.Fatal("fresh publisher has a current snapshot")
	}

	var subSaw []int
	p.Subscribe(func(s *Snapshot) {
		// The subscriber must run before the flip: Current still names the
		// previous version (or nil) while we build derived state.
		if cur := p.Current(); cur != nil && cur.Version >= s.Version {
			t.Errorf("subscriber for v%d ran after flip (current v%d)", s.Version, cur.Version)
		}
		subSaw = append(subSaw, s.Version)
	})

	s1 := &Snapshot{Version: 1, N: 1, K: 1, Pi: []float32{1}}
	if err := p.Publish(s1); err != nil {
		t.Fatal(err)
	}
	if got := p.Current(); got != s1 {
		t.Fatalf("Current = %+v, want the published snapshot", got)
	}
	if err := p.Publish(&Snapshot{Version: 1}); err == nil {
		t.Fatal("replayed version accepted")
	}
	if err := p.Publish(&Snapshot{Version: 0}); err == nil {
		t.Fatal("stale version accepted")
	}
	if err := p.Publish(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if err := p.Publish(&Snapshot{Version: 5}); err != nil {
		t.Fatal(err)
	}
	if p.Current().Version != 5 {
		t.Fatalf("Current version = %d, want 5", p.Current().Version)
	}
	if len(subSaw) != 2 || subSaw[0] != 1 || subSaw[1] != 5 {
		t.Fatalf("subscriber saw %v, want [1 5]", subSaw)
	}
	if p.LastFlipNS() <= 0 {
		t.Fatalf("LastFlipNS = %d, want > 0", p.LastFlipNS())
	}

	// A late subscriber is caught up on the current snapshot immediately.
	var late int
	p.Subscribe(func(s *Snapshot) { late = s.Version })
	if late != 5 {
		t.Fatalf("late subscriber saw v%d, want 5", late)
	}
}

// TestPublisherLateSubscriberSeesEachVersionOnce: a Subscribe racing a
// Publish must deliver each version once and in order — [2] if the publish
// won, [1 2] if the catch-up did — never a duplicate and never 2 before 1
// (which would flip a serving engine back a version).
func TestPublisherLateSubscriberSeesEachVersionOnce(t *testing.T) {
	const trials = 20_000
	bad := 0
	var first []int
	for i := 0; i < trials; i++ {
		p := NewPublisher()
		if err := p.Publish(&Snapshot{Version: 1}); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var saw []int
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Publish(&Snapshot{Version: 2}); err != nil {
				t.Error(err)
			}
		}()
		p.Subscribe(func(s *Snapshot) {
			// Yield first, to widen the window in which an unserialised
			// catch-up could interleave with the racing Publish.
			runtime.Gosched()
			mu.Lock()
			saw = append(saw, s.Version)
			mu.Unlock()
		})
		wg.Wait()
		if !(len(saw) == 1 && saw[0] == 2) && !(len(saw) == 2 && saw[0] == 1 && saw[1] == 2) {
			if bad++; first == nil {
				first = saw
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d trials delivered a wrong sequence (first: %v), want [2] or [1 2]", bad, trials, first)
	}
}

// TestPublisherConcurrentReaders: readers loading Current while a publisher
// flips must always observe a fully-sealed snapshot whose contents match its
// version — the RCU guarantee, meaningful under -race.
func TestPublisherConcurrentReaders(t *testing.T) {
	const versions, readers = 200, 4
	p := NewPublisher()
	// Version v's slab is filled with float32(v): a torn view would show
	// mixed values.
	mk := func(v int) *Snapshot {
		pi := make([]float32, 8)
		for i := range pi {
			pi[i] = float32(v)
		}
		return &Snapshot{Version: v, N: 4, K: 2, Pi: pi}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := p.Current()
				if s == nil {
					continue
				}
				if s.Version < last {
					t.Errorf("version went backwards: %d after %d", s.Version, last)
					return
				}
				last = s.Version
				for i, v := range s.Pi {
					if v != float32(s.Version) {
						t.Errorf("torn snapshot: v%d has Pi[%d]=%v", s.Version, i, v)
						return
					}
				}
			}
		}()
	}
	for v := 1; v <= versions; v++ {
		if err := p.Publish(mk(v)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
