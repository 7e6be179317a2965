package core

import (
	"bytes"
	"os"
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

// saved returns the checkpoint bytes of ps's rows beside theta at iter.
func saved(t *testing.T, ps store.PiStore, theta []float64, iter int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveStore(&buf, ps, theta, iter); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	want, err := os.ReadFile(inRAM)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 10 || !bytes.Equal(saved(t, ms, theta, iter), want) {
		t.Fatalf("the restored mmap store at iteration %d does not save back to the checkpoint it read", iter)
	}

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
	local := store.NewLocal(ref.State.Pi, ref.State.PhiSum, k, 1)
	if !bytes.Equal(saved(t, ms, resumed.State.Theta, resumed.Iteration()), saved(t, local, ref.State.Theta, ref.Iteration())) {
		t.Fatal("the resumed out-of-core chain diverged from the in-RAM one")
	}

	// Shape mismatches fail typed before any row is written.
	wrong := mmapFixture(t, DefaultConfig(k, 23), n+1)
	if _, _, err := LoadStoreFile(inRAM, wrong); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
