package store

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/transport"
)

// sweepN spans two full sweep batches and a ragged third, so every batch
// edge of Sweep is inside the table.
const sweepN = 2*BatchRows + 5

// initPattern is the deterministic starting row every backend in the
// snapshot table is loaded with.
func initPattern(a int, pi []float32) float64 {
	for j := range pi {
		pi[j] = float32(a*10 + j)
	}
	return float64(a)
}

// trainSteps drives a store through a training-like write sequence: reads
// of scattered rows, then WriteRows of fresh φ for a batch that overlaps
// them. The same seed gives the same writes on every backend.
func trainSteps(t *testing.T, ps PiStore, steps int) {
	t.Helper()
	k := ps.K()
	var rows Rows
	for step := 0; step < steps; step++ {
		ids := make([]int32, 64)
		for i := range ids {
			ids[i] = int32((step*7919 + i*1031) % sweepN)
		}
		if err := ps.ReadRows(ids, &rows); err != nil {
			t.Fatal(err)
		}
		phi := make([]float64, len(ids)*k)
		for i := range phi {
			phi[i] = float64((step+1)*(i%13) + 1)
		}
		if err := ps.WriteRows(ids[:len(ids)/2], phi[:len(ids)/2*k]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTakeSnapshotEveryBackend is the one snapshot test: every backend —
// local, mmap, tiered, and DKV at 2 ranks — is trained through the same write sequence and sealed by TakeSnapshot, and
// each snapshot must equal the reference model bit for bit, carry its
// version and a copy of β, and stay sealed when the store is written after.
// The table spans two batch edges of Sweep, so a sweep that skips, repeats
// or misplaces a row at a batch boundary fails here for every backend.
func TestTakeSnapshotEveryBackend(t *testing.T) {
	const k, steps = 3, 6
	ref := NewLocal(make([]float32, sweepN*k), make([]float64, sweepN), k, 1)
	pi := make([]float32, k)
	for a := 0; a < sweepN; a++ {
		sum := initPattern(a, pi)
		if err := ref.WritePiRows([]int32{int32(a)}, pi, []float64{sum}); err != nil {
			t.Fatal(err)
		}
	}
	trainSteps(t, ref, steps)

	dkvPair := func(t *testing.T) PiStore {
		f, err := transport.NewFabric(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		var stores [2]*DKVStore
		for r := range stores {
			st, err := dkvOver(f.Endpoint(r), sweepN, k, 2, ownedLocal(k, initPattern))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			stores[r] = st
		}
		return stores[0] // the serving rank; rank 1 serves its shard passively
	}
	backends := []struct {
		name string
		make func(t *testing.T) PiStore
	}{
		{"local", func(t *testing.T) PiStore {
			ls := NewLocal(make([]float32, sweepN*k), make([]float64, sweepN), k, 2)
			for a := 0; a < sweepN; a++ {
				sum := initPattern(a, pi)
				if err := ls.WritePiRows([]int32{int32(a)}, pi, []float64{sum}); err != nil {
					t.Fatal(err)
				}
			}
			return ls
		}},
		{"mmap", func(t *testing.T) PiStore { return initMmap(t, sweepN, k, MmapOptions{ShardRows: 1000, Threads: 2}) }},
		{"tiered", func(t *testing.T) PiStore { return tierFixture(t, sweepN, k) }},
		{"dkv", dkvPair},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			ps := b.make(t)
			trainSteps(t, ps, steps)
			beta := []float64{0.1, 0.2, 0.3}
			snap, err := TakeSnapshot(ps, 7, beta)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Version != 7 || snap.N != sweepN || snap.K != k || snap.SealedAt.IsZero() {
				t.Fatalf("snapshot header = v%d %d×%d sealed %v, want v7 %d×%d stamped",
					snap.Version, snap.N, snap.K, snap.SealedAt, sweepN, k)
			}
			for i, v := range snap.Pi {
				if math.Float32bits(v) != math.Float32bits(ref.pi[i]) {
					t.Fatalf("snapshot π[%d][%d] = %v, reference %v", i/k, i%k, v, ref.pi[i])
				}
			}
			beta[0] = 99
			if snap.Beta[0] != 0.1 {
				t.Fatal("snapshot β aliases the caller's slice")
			}
			// Sealed: training on does not move the snapshot.
			before := append([]float32(nil), snap.Pi...)
			trainSteps(t, ps, 2)
			for i := range before {
				if snap.Pi[i] != before[i] {
					t.Fatalf("snapshot π[%d] changed after store writes: %v -> %v", i, before[i], snap.Pi[i])
				}
			}
		})
	}
}

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
	snap, err := TakeSnapshot(ls, 7, beta)
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
// fetching every row of the remote shard over the DKV like any other read.
func TestDKVSnapshotGathersFullView(t *testing.T) {
	const n, k = 37, 4
	f, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stores := make([]*DKVStore, 2)
	for r := 0; r < 2; r++ {
		st, err := dkvOver(f.Endpoint(r), n, k, 1, ownedLocal(k, func(a int, pi []float32) float64 {
			for j := range pi {
				pi[j] = float32(a*100 + j)
			}
			return float64(a)
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[r] = st
	}
	snap, err := TakeSnapshot(stores[0], 3, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if snap.N != n || snap.K != k {
		t.Fatalf("snapshot shape = %dx%d, want %dx%d", snap.N, snap.K, n, k)
	}
	for a := 0; a < n; a++ {
		row := snap.PiRow(a)
		for j := 0; j < k; j++ {
			if row[j] != float32(a*100+j) {
				t.Fatalf("snapshot π[%d][%d] = %v, want %v", a, j, row[j], float32(a*100+j))
			}
		}
	}
	// The sweep reads through the DKV: every row rank 1 owns is fetched.
	lo, hi := stores[0].kv.OwnedRange()
	if got, remote := stores[0].kv.Stats().RemoteKeys.Load(), int64(n-(hi-lo)); got != remote {
		t.Fatalf("snapshot gather fetched %d remote keys, want %d", got, remote)
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
