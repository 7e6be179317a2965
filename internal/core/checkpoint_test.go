package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/store"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := DefaultConfig(6, 77)
	s, err := NewState(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf, 123); err != nil {
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
	s.Save(&buf, 0)
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
	if err := s.Save(&buf, 7); err != nil {
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
	if _, _, err := Load(strings.NewReader(strings.Repeat("x", 64))); errors.Is(err, ErrCheckpointTruncated) {
		t.Fatal("bad magic misreported as truncation")
	}

	// Trailing bytes past the arrays the header promises.
	if _, _, err := Load(bytes.NewReader(append(append([]byte(nil), whole...), 0xFF))); err == nil {
		t.Fatal("checkpoint with trailing bytes accepted")
	} else if errors.Is(err, ErrCheckpointTruncated) {
		t.Fatalf("trailing bytes misreported as truncation: %v", err)
	}

	// Shape validation: CheckShape and LoadFileFor.
	if err := s.CheckShape(10, 4); err != nil {
		t.Fatalf("CheckShape on matching shape: %v", err)
	}
	if err := s.CheckShape(11, 4); !errors.Is(err, ErrCheckpointShape) {
		t.Fatalf("wrong N: err = %v, want ErrCheckpointShape", err)
	}
	if err := s.CheckShape(10, 8); !errors.Is(err, ErrCheckpointShape) {
		t.Fatalf("wrong K: err = %v, want ErrCheckpointShape", err)
	}

	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if state, iter, err := LoadFileFor(path, cfg, 10); err != nil || iter != 7 || state.N != 10 {
		t.Fatalf("LoadFileFor(matching) = N=%v iter=%d, err %v", state, iter, err)
	}
	if _, _, err := LoadFileFor(path, cfg, 11); !errors.Is(err, ErrCheckpointShape) {
		t.Fatalf("LoadFileFor wrong N: err = %v, want ErrCheckpointShape", err)
	}
	if _, _, err := LoadFileFor(path, DefaultConfig(8, 1), 10); !errors.Is(err, ErrCheckpointShape) {
		t.Fatalf("LoadFileFor wrong K: err = %v, want ErrCheckpointShape", err)
	}
}

func TestCheckpointFile(t *testing.T) {
	cfg := DefaultConfig(4, 5)
	s, _ := NewState(cfg, 20)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := s.SaveFile(path, 55); err != nil {
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

// TestResumeContinuesChain trains, checkpoints, resumes, and verifies the
// resumed run is bit-identical to an uninterrupted one.
func TestResumeContinuesChain(t *testing.T) {
	train, held := plantedFixture(t, 150, 4, 700, 88)
	cfg := DefaultConfig(4, 21)

	full, err := NewSampler(cfg, train, held, SamplerOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	full.Run(20)

	first, err := NewSampler(cfg, train, held, SamplerOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	first.Run(12)
	var buf bytes.Buffer
	if err := first.State.Save(&buf, first.Iteration()); err != nil {
		t.Fatal(err)
	}

	state, iter, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewSampler(cfg, train, held, SamplerOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Resume(cfg, train, state, iter, resumed); err != nil {
		t.Fatal(err)
	}
	resumed.Run(8)

	if mathx.MaxAbsDiff32(full.State.Pi, resumed.State.Pi) != 0 {
		t.Fatal("resumed chain diverged from uninterrupted run")
	}
	if mathx.MaxAbsDiff(full.State.Theta, resumed.State.Theta) != 0 {
		t.Fatal("resumed θ diverged from uninterrupted run")
	}
}

func TestResumeValidatesShapes(t *testing.T) {
	train, held := plantedFixture(t, 100, 4, 500, 89)
	cfg := DefaultConfig(4, 2)
	s, err := NewSampler(cfg, train, held, SamplerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wrongN, _ := NewState(cfg, 50)
	if err := Resume(cfg, train, wrongN, 0, s); err == nil {
		t.Fatal("wrong N accepted")
	}
	cfg8 := DefaultConfig(8, 2)
	wrongK, _ := NewState(cfg8, 100)
	if err := Resume(cfg, train, wrongK, 0, s); err == nil {
		t.Fatal("wrong K accepted")
	}
}

// TestCheckpointGoldenFormat pins the bytes on disk: the golden file was
// written by State.SaveFile at the commit before the two writers and two
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
	if err := got.Save(&buf, iter); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("State.Save of the loaded golden differs from the golden bytes")
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
