package core

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// mmapFixture builds a sealed MmapStore holding exactly the rows NewState
// would draw for cfg.
func mmapFixture(t *testing.T, cfg Config, n int) *store.MmapStore {
	t.Helper()
	ms, err := store.CreateMmap(t.TempDir(), n, cfg.K, store.MmapOptions{ShardRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	if err := ms.InitRows(ShellInit(cfg)); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Seal(); err != nil {
		t.Fatal(err)
	}
	return ms
}

// comparePi bit-compares the full π table of an external backend against the
// in-RAM reference state.
func comparePi(t *testing.T, label string, ref *State, ps store.PiStore) {
	t.Helper()
	n, k := ref.N, ref.K
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	var rows store.Rows
	if err := ps.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < n; a++ {
		if math.Float64bits(rows.PhiSum[a]) != math.Float64bits(ref.PhiSum[a]) {
			t.Fatalf("%s: Σφ[%d] = %v, ref %v (not bit-identical)", label, a, rows.PhiSum[a], ref.PhiSum[a])
		}
		for j := 0; j < k; j++ {
			if math.Float32bits(rows.PiRow(a)[j]) != math.Float32bits(ref.PiRow(a)[j]) {
				t.Fatalf("%s: π[%d][%d] = %v, ref %v (not bit-identical)", label, a, j, rows.PiRow(a)[j], ref.PiRow(a)[j])
			}
		}
	}
}

// TestOutOfCoreParityTrajectory is the acceptance gate of the out-of-core
// path: training against MmapStore and TieredStore produces the same
// trajectory as the in-RAM sampler, bit for bit, iteration by iteration.
func TestOutOfCoreParityTrajectory(t *testing.T) {
	const n, k, iters = 200, 5, 25
	train, held := plantedFixture(t, n, k, 1000, 91)
	cfg := DefaultConfig(k, 17)
	opt := SamplerOptions{Threads: 2, MinibatchPairs: 64}

	ref, err := NewSampler(cfg, train, held, opt)
	if err != nil {
		t.Fatal(err)
	}

	backends := []struct {
		label string
		ps    store.PiStore
	}{}
	ms := mmapFixture(t, cfg, n)
	backends = append(backends, struct {
		label string
		ps    store.PiStore
	}{"mmap", ms})
	tierBase := mmapFixture(t, cfg, n)
	tier, err := store.NewTiered(tierBase, nil, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	backends = append(backends, struct {
		label string
		ps    store.PiStore
	}{"tiered", tier})

	samplers := make([]*Sampler, len(backends))
	for i, b := range backends {
		bo := opt
		bo.Store = b.ps
		s, err := NewSampler(cfg, train, held, bo)
		if err != nil {
			t.Fatal(err)
		}
		if s.State.Pi != nil || s.State.PhiSum != nil {
			t.Fatalf("%s: external-store sampler allocated in-RAM π slabs", b.label)
		}
		samplers[i] = s
	}

	for it := 0; it < iters; it++ {
		ref.Step()
		for i, b := range backends {
			if err := samplers[i].TryStep(); err != nil {
				t.Fatalf("%s: iteration %d: %v", b.label, it, err)
			}
			for j := range ref.State.Theta {
				if math.Float64bits(samplers[i].State.Theta[j]) != math.Float64bits(ref.State.Theta[j]) {
					t.Fatalf("%s: iteration %d: θ[%d] = %v, ref %v (not bit-identical)",
						b.label, it, j, samplers[i].State.Theta[j], ref.State.Theta[j])
				}
			}
		}
	}
	for i, b := range backends {
		comparePi(t, b.label, ref.State, b.ps)
		refPerp := ref.EvalPerplexity()
		if got := samplers[i].EvalPerplexity(); math.Float64bits(got) != math.Float64bits(refPerp) {
			t.Fatalf("%s: perplexity %v, ref %v (not bit-identical)", b.label, got, refPerp)
		}
	}
}

// TestOutOfCoreCheckpointRoundTrip pins the streamed restore against the
// in-RAM state: a checkpoint of a State lands bit-identically in an mmap
// store, and a resumed out-of-core run continues the reference trajectory
// exactly. (State.Save IS the streamed writer over a LocalStore view; the
// bytes themselves are pinned by TestCheckpointGoldenFormat.)
func TestOutOfCoreCheckpointRoundTrip(t *testing.T) {
	const n, k = 150, 4
	train, held := plantedFixture(t, n, k, 800, 92)
	cfg := DefaultConfig(k, 23)
	opt := SamplerOptions{Threads: 1, MinibatchPairs: 48}

	ref, err := NewSampler(cfg, train, held, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(10)

	dir := t.TempDir()
	inRAM := filepath.Join(dir, "inram.ckpt")
	if err := ref.State.SaveFile(inRAM, ref.Iteration()); err != nil {
		t.Fatal(err)
	}

	// Streamed restore into a fresh mmap store: rows land bit-identically.
	ms := mmapFixture(t, cfg, n)
	theta, iter, err := LoadStoreFile(inRAM, ms)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 10 {
		t.Fatalf("restored iteration %d, want 10", iter)
	}
	for i := range theta {
		if math.Float64bits(theta[i]) != math.Float64bits(ref.State.Theta[i]) {
			t.Fatalf("restored θ[%d] = %v, ref %v", i, theta[i], ref.State.Theta[i])
		}
	}
	comparePi(t, "restored mmap", ref.State, ms)

	// Resume out-of-core and run 5 more iterations against the in-RAM
	// continuation: still the same trajectory.
	bo := opt
	bo.Store = ms
	resumed, err := NewSampler(cfg, train, held, bo)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(inRAM); err != nil {
		t.Fatal(err)
	}
	ref.Run(5)
	for i := 0; i < 5; i++ {
		if err := resumed.TryStep(); err != nil {
			t.Fatal(err)
		}
	}
	if resumed.Iteration() != ref.Iteration() {
		t.Fatalf("resumed at iteration %d, ref %d", resumed.Iteration(), ref.Iteration())
	}
	for j := range ref.State.Theta {
		if math.Float64bits(resumed.State.Theta[j]) != math.Float64bits(ref.State.Theta[j]) {
			t.Fatalf("resumed θ[%d] diverged: %v vs %v", j, resumed.State.Theta[j], ref.State.Theta[j])
		}
	}
	comparePi(t, "resumed mmap", ref.State, ms)

	// Shape mismatches fail typed before any row is written.
	wrong := mmapFixture(t, DefaultConfig(k, 23), n+1)
	if _, _, err := LoadStoreFile(inRAM, wrong); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
