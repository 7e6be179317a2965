package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dkv"
	"repro/internal/mathx"
	"repro/internal/store"
	"repro/internal/transport"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := DefaultConfig(6, 77)
	s, err := NewState(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saveState(s, &buf, 123); err != nil {
		t.Fatal(err)
	}
	got, iter, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 123 {
		t.Fatalf("iteration = %d, want 123", iter)
	}
	if mathx.MaxAbsDiff32(s.Pi, got.Pi) != 0 {
		t.Fatal("π not bit-identical after round trip")
	}
	if mathx.MaxAbsDiff(s.PhiSum, got.PhiSum) != 0 {
		t.Fatal("Σφ not bit-identical after round trip")
	}
	if mathx.MaxAbsDiff(s.Theta, got.Theta) != 0 {
		t.Fatal("θ not bit-identical after round trip")
	}
	if mathx.MaxAbsDiff(s.Beta, got.Beta) != 0 {
		t.Fatal("β not re-derived correctly")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, _, err := Load(strings.NewReader("not a checkpoint at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated payload.
	cfg := DefaultConfig(4, 1)
	s, _ := NewState(cfg, 10)
	var buf bytes.Buffer
	saveState(s, &buf, 0)
	truncated := buf.Bytes()[:buf.Len()/2]
	if _, _, err := Load(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestCheckpointTypedErrors pins the error taxonomy rank-loss recovery
// depends on: every way a file can run short is ErrCheckpointTruncated, a
// shape mismatch against the target run is ErrCheckpointShape, and trailing
// bytes past the promised arrays are rejected.
func TestCheckpointTypedErrors(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	s, err := NewState(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saveState(s, &buf, 7); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Truncation at every section boundary (and mid-array): header, π, Σφ, θ.
	piEnd := 28 + 4*len(s.Pi)
	phiEnd := piEnd + 8*len(s.PhiSum)
	for _, cut := range []int{0, 10, 28, 28 + 4*len(s.Pi)/2, piEnd, piEnd + 4, phiEnd, len(whole) - 1} {
		_, _, err := Load(bytes.NewReader(whole[:cut]))
		if !errors.Is(err, ErrCheckpointTruncated) {
			t.Fatalf("cut at %d of %d: err = %v, want ErrCheckpointTruncated", cut, len(whole), err)
		}
	}
	// Garbage (wrong magic) is NOT "truncated" — it is a different failure.
	if _, _, err := Load(strings.NewReader(strings.Repeat("x", 64))); !errors.Is(err, ErrCheckpointFormat) {
		t.Fatalf("bad magic: err = %v, want ErrCheckpointFormat", err)
	}

	// Trailing bytes past the arrays the header promises.
	if _, _, err := Load(bytes.NewReader(append(append([]byte(nil), whole...), 0xFF))); !errors.Is(err, ErrCheckpointFormat) {
		t.Fatalf("trailing bytes: err = %v, want ErrCheckpointFormat", err)
	}

	// Shape validation against the destination store, before any row lands.
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][2]int{{10, 4}, {11, 4}, {10, 8}} {
		n, k := dims[0], dims[1]
		pi := make([]float32, n*k)
		_, iter, err := LoadStoreFile(path, store.NewLocal(pi, make([]float64, n), k, 1))
		switch {
		case n == 10 && k == 4 && (err != nil || iter != 7):
			t.Fatalf("LoadStoreFile(matching) = iteration %d, err %v", iter, err)
		case (n != 10 || k != 4) && !errors.Is(err, ErrCheckpointShape):
			t.Fatalf("LoadStoreFile into %d×%d: err = %v, want ErrCheckpointShape", n, k, err)
		case (n != 10 || k != 4) && mathx.MaxAbsDiff32(pi, make([]float32, n*k)) != 0:
			t.Fatalf("LoadStoreFile into %d×%d wrote rows before failing", n, k)
		}
	}
	if err := CheckResumeIter(7, 8); err != nil {
		t.Fatalf("CheckResumeIter(7, 8) = %v", err)
	}
	for _, target := range []int{7, 3} {
		if err := CheckResumeIter(7, target); err == nil || !strings.Contains(err.Error(), "at or past -iters") {
			t.Fatalf("CheckResumeIter(7, %d) = %v, want the at-or-past error", target, err)
		}
	}
}

func TestCheckpointFile(t *testing.T) {
	cfg := DefaultConfig(4, 5)
	s, _ := NewState(cfg, 20)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := saveStateFile(s, path, 55); err != nil {
		t.Fatal(err)
	}
	got, iter, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 55 || got.N != 20 || got.K != 4 {
		t.Fatalf("loaded iter=%d N=%d K=%d", iter, got.N, got.K)
	}
}

// TestResumeValidatesShapes: a checkpoint of the wrong N or K is rejected
// typed before any row lands in the store being resumed.
func TestResumeValidatesShapes(t *testing.T) {
	train, held := plantedFixture(t, 100, 4, 500, 89)
	cfg := DefaultConfig(4, 2)
	s, err := NewSampler(cfg, train, held, SamplerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps := store.NewLocal(s.State.Pi, s.State.PhiSum, cfg.K, 1)
	before := append([]float32(nil), s.State.Pi...)
	dir := t.TempDir()
	wrongN, _ := NewState(cfg, 50)
	wrongK, _ := NewState(DefaultConfig(8, 2), 100)
	for name, st := range map[string]*State{"wrong N": wrongN, "wrong K": wrongK} {
		path := filepath.Join(dir, name+".ckpt")
		if err := saveStateFile(st, path, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadStoreFile(path, ps); !errors.Is(err, ErrCheckpointShape) {
			t.Fatalf("%s: LoadStoreFile = %v, want ErrCheckpointShape", name, err)
		}
	}
	if mathx.MaxAbsDiff32(before, s.State.Pi) != 0 {
		t.Fatal("a rejected restore changed the store")
	}
}

// TestCheckpointGoldenFormat pins the bytes on disk: the golden file was
// written by the State saver at the commit before the two writers and two
// readers became one, from NewState(DefaultConfig(3, 7), 5) at iteration 42.
// It must load bit-identically and re-save byte-identically through every
// entry point of the merged codec.
func TestCheckpointGoldenFormat(t *testing.T) {
	golden := filepath.Join("testdata", "checkpoint_v1_n5_k3.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewState(DefaultConfig(3, 7), 5)
	if err != nil {
		t.Fatal(err)
	}

	got, iter, err := LoadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 42 || got.N != 5 || got.K != 3 {
		t.Fatalf("golden loaded as N=%d K=%d iteration %d, want 5, 3, 42", got.N, got.K, iter)
	}
	if mathx.MaxAbsDiff32(ref.Pi, got.Pi) != 0 || mathx.MaxAbsDiff(ref.PhiSum, got.PhiSum) != 0 ||
		mathx.MaxAbsDiff(ref.Theta, got.Theta) != 0 || mathx.MaxAbsDiff(ref.Beta, got.Beta) != 0 {
		t.Fatal("golden checkpoint did not load bit-identically")
	}
	var buf bytes.Buffer
	if err := saveState(got, &buf, iter); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("the save of the loaded golden differs from the golden bytes")
	}

	// The store path: restore into a backend, stream it back out to a file.
	pi, sums := make([]float32, 5*3), make([]float64, 5)
	view := store.NewLocal(pi, sums, 3, 1)
	theta, iter, err := LoadStoreFile(golden, view)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "resaved.ckpt")
	if err := SaveStoreFile(out, view, theta, iter); err != nil {
		t.Fatal(err)
	}
	resaved, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved, want) {
		t.Fatal("SaveStoreFile of the restored golden differs from the golden bytes")
	}
}

// TestCheckpointHostileHeader: a header is a claim, not a size. A 28-byte
// file announcing a huge table must fail as truncated on every loader before
// anything is allocated from the claim — the unchecked Load used to panic
// with "makeslice: len out of range" on the first and allocate gigabytes on
// the second.
func TestCheckpointHostileHeader(t *testing.T) {
	dst := store.NewLocal(make([]float32, 4), make([]float64, 2), 2, 1)
	for _, dims := range [][2]int{{1 << 31, 1 << 24}, {1 << 20, 1 << 10}} {
		hdr := appendHeader(nil, dims[0], dims[1], 7)
		path := filepath.Join(t.TempDir(), "hostile.ckpt")
		if err := os.WriteFile(path, hdr, 0o644); err != nil {
			t.Fatal(err)
		}
		loaders := map[string]func() error{
			"Load":          func() error { _, _, err := Load(bytes.NewReader(hdr)); return err },
			"LoadFile":      func() error { _, _, err := LoadFile(path); return err },
			"LoadStoreFile": func() error { _, _, err := LoadStoreFile(path, dst); return err },
		}
		for name, load := range loaders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := load()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCheckpointTruncated) {
				t.Errorf("%s(N=%d K=%d header only) = %v, want ErrCheckpointTruncated", name, dims[0], dims[1], err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("%s(N=%d K=%d header only) allocated %d bytes from a 28-byte file", name, dims[0], dims[1], grew)
			}
		}
	}
}

// TestCheckpointBytesEveryBackend: the one restore and the one sweep give
// the same bytes on every backend. A model one batch and a ragged tail long
// is restored from its in-RAM save into local, mmap, tiered, and DKV at 2
// ranks, then saved back out of each; every file must equal the in-RAM save's
// bytes.
func TestCheckpointBytesEveryBackend(t *testing.T) {
	const n, k = store.BatchRows + 37, 4
	cfg := DefaultConfig(k, 3)
	ref, err := NewState(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := saveState(ref, &want, 31); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.ckpt")
	if err := os.WriteFile(path, want.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	dkvStore := func(t *testing.T) store.PiStore {
		f, err := transport.NewFabric(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		var master *store.DKVStore
		for r := 0; r < 2; r++ {
			lo, hi := dkv.Range(n, 2, r)
			owned := store.NewLocal(make([]float32, (hi-lo)*k), make([]float64, hi-lo), k, 2)
			st, err := store.NewDKV(f.Endpoint(r), n, k, 2, nil, owned)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			if r == 0 {
				master = st
			}
		}
		return master
	}
	mmap := func(t *testing.T) *store.MmapStore {
		ms, err := store.CreateMmap(t.TempDir(), n, k, store.MmapOptions{ShardRows: 1000})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ms.Close() })
		return ms
	}
	backends := map[string]func(t *testing.T) store.PiStore{
		"local": func(*testing.T) store.PiStore {
			return store.NewLocal(make([]float32, n*k), make([]float64, n), k, 2)
		},
		"mmap": func(t *testing.T) store.PiStore { return mmap(t) },
		"tiered": func(t *testing.T) store.PiStore {
			tier, err := store.NewTiered(mmap(t), nil, 0, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			return tier
		},
		"dkv": dkvStore,
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			ps := mk(t)
			theta, iter, err := LoadStoreFile(path, ps)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := SaveStore(&got, ps, theta, iter); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("checkpoint restored into and saved from %s differs from the in-RAM save's bytes", name)
			}
		})
	}
}

// FuzzCheckpointRestore drives the one checkpoint reader every engine
// resumes through (restore, here behind Load) with arbitrary bytes, seeded
// from the golden file, its truncations and a trailing byte. Every input
// must either fail with one of the typed checkpoint errors or load a state
// that the in-RAM save writes back byte for byte — never panic, and never
// allocate in proportion to a header claim the bytes do not back.
func FuzzCheckpointRestore(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1_n5_k3.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut < len(golden); cut += 9 {
		f.Add(golden[:cut])
	}
	f.Add(golden)
	f.Add(append(append([]byte(nil), golden...), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, iter, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("loading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrCheckpointTruncated) && !errors.Is(err, ErrCheckpointShape) &&
				!errors.Is(err, ErrCheckpointFormat) {
				t.Fatalf("untyped checkpoint error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := saveState(st, &buf, iter); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("a loaded checkpoint does not round-trip: %d bytes in, %d out", len(data), buf.Len())
		}
	})
}

// saveState writes s as a checkpoint at iteration: SaveStore over a
// LocalStore view of its arrays.
func saveState(s *State, w io.Writer, iteration int) error {
	return SaveStore(w, store.NewLocal(s.Pi, s.PhiSum, s.K, 1), s.Theta, iteration)
}

// saveStateFile is saveState to a file, atomically.
func saveStateFile(s *State, path string, iteration int) error {
	return SaveStoreFile(path, store.NewLocal(s.Pi, s.PhiSum, s.K, 1), s.Theta, iteration)
}
