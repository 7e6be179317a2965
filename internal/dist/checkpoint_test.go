package dist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/store"
)

// TestCheckpointSurvivesRankLoss is the rank-loss drill end to end: a rank
// dies mid-run, the run aborts, and restarting from the last coordinated
// checkpoint completes the chain bit-identical to one that never failed.
func TestCheckpointSurvivesRankLoss(t *testing.T) {
	train, held := fixture(t, 200, 4, 900, 63)
	cfg := core.DefaultConfig(4, 505)
	const iters, every, failAt = 10, 4, 6

	base := Options{Ranks: 2, Iterations: iters}
	straight, err := Run(cfg, train, held, base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt := base
	opt.CheckpointPath = path
	opt.CheckpointEvery = every
	opt.FaultHook = func(rank, iter int) error {
		if rank == 1 && iter == failAt {
			return errors.New("injected rank loss")
		}
		return nil
	}
	if _, err := Run(cfg, train, held, opt); err == nil {
		t.Fatal("run with a dead rank reported success")
	}

	_, iter, err := core.LoadFile(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after abort: %v", err)
	}
	if iter != every {
		t.Fatalf("checkpoint iteration = %d, want %d (last boundary before the fault)", iter, every)
	}

	opt = base
	opt.RestartPath = path
	resumed, err := Run(cfg, train, held, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := mathx.MaxAbsDiff32(straight.State.Pi, resumed.State.Pi); d != 0 {
		t.Fatalf("recovered π differs by %v from the never-failed run", d)
	}
	if d := mathx.MaxAbsDiff(straight.State.Theta, resumed.State.Theta); d != 0 {
		t.Fatalf("recovered θ differs by %v from the never-failed run", d)
	}
}

// TestRestartOptionValidation pins the fail-fast paths: a checkpoint of the
// wrong shape, one at or past Iterations, a truncated file and a missing one
// each fail the run through the abort path, in bounded time, with the typed
// error where there is one.
func TestRestartOptionValidation(t *testing.T) {
	train, held := fixture(t, 100, 4, 500, 64)
	cfg := core.DefaultConfig(4, 1)
	good, err := core.NewState(cfg, train.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	wrongN, err := core.NewState(cfg, train.NumVertices()+1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	save := func(name string, st *core.State, iter int) string {
		path := filepath.Join(dir, name)
		if err := core.SaveStoreFile(path, store.NewLocal(st.Pi, st.PhiSum, st.K, 1), st.Theta, iter); err != nil {
			t.Fatal(err)
		}
		return path
	}
	wrongShape, atEnd, pastEnd := save("n.ckpt", wrongN, 1), save("end.ckpt", good, 4), save("past.ckpt", good, 9)
	whole, err := os.ReadFile(save("whole.ckpt", good, 1))
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.ckpt")
	if err := os.WriteFile(cut, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, path string
		want       error
	}{
		{"wrong shape", wrongShape, core.ErrCheckpointShape},
		{"iter at end", atEnd, nil},
		{"iter past end", pastEnd, nil},
		{"truncated", cut, core.ErrCheckpointTruncated},
		{"missing", filepath.Join(dir, "absent.ckpt"), nil},
	}
	for _, tc := range cases {
		_, err := Run(cfg, train, held, Options{Ranks: 2, Iterations: 4, RestartPath: tc.path})
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCheckpointFileIsAtomic sanity-checks the write path the recovery drill
// depends on: the checkpoint appears via rename, so a reader never sees a
// partial file even if it polls mid-save.
func TestCheckpointFileIsAtomic(t *testing.T) {
	train, held := fixture(t, 120, 3, 500, 65)
	cfg := core.DefaultConfig(3, 9)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if _, err := Run(cfg, train, held, Options{
		Ranks: 2, Iterations: 4, CheckpointPath: path, CheckpointEvery: 2,
	}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("checkpoint dir holds %v; want exactly [run.ckpt] (no temp litter)", names)
	}
	if _, _, err := core.LoadFile(path); err != nil {
		t.Fatal(err)
	}
}
