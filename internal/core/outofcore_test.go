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
// store, which saves back to the same bytes. (An in-RAM save IS the streamed
// writer over a LocalStore view; the bytes themselves are pinned by
// TestCheckpointGoldenFormat, and a resumed out-of-core run continuing the
// chain by the parity matrix's dist/mmap cells.)
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
	if err := saveStateFile(ref.State, inRAM, ref.Iteration()); err != nil {
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

	// Shape mismatches fail typed before any row is written.
	wrong := mmapFixture(t, DefaultConfig(k, 23), n+1)
	if _, _, err := LoadStoreFile(inRAM, wrong); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
