package dist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mathx"
	"repro/internal/obs"
)

// rebalCfg is an aggressive mitigation config for tests: 2-iteration windows,
// a single slow window triggers a shrink, and recovery is effectively
// disabled (HealWindows huge) so the weight trajectory is monotone and the
// assertions below don't race the restore probing.
func aggressiveRebalance() engine.RebalanceConfig {
	cfg := engine.DefaultRebalanceConfig()
	cfg.Window = 2
	cfg.SlowWindows = 1
	cfg.HealWindows = 1 << 20
	cfg.Step = 0.5
	return cfg
}

// TestRebalanceIdleIsInvisible pins the cheap half of the estimator-
// neutrality property: with mitigation enabled but no straggler, the weights
// never move and the run is bit-identical to one without the reshard stage —
// the extra Gather/Bcast per window carries data, not randomness.
func TestRebalanceIdleIsInvisible(t *testing.T) {
	train, held := fixture(t, 200, 4, 900, 61)
	cfg := core.DefaultConfig(4, 303)
	const iters = 8

	plain, err := Run(cfg, train, held, Options{Ranks: 3, Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	// Raise the flagging floor far above natural sync noise: the peers
	// block on rank 0's minibatch scatter every iteration, and over a short
	// window that structural wait can clear the 1ms production floor. This
	// test is about the no-flag path, so nothing may flag.
	quiet := aggressiveRebalance()
	quiet.FloorMS = 60_000
	mitigated, err := Run(cfg, train, held, Options{
		Ranks: 3, Iterations: iters,
		Rebalance: true, RebalanceCfg: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := mathx.MaxAbsDiff32(plain.State.Pi, mitigated.State.Pi); d != 0 {
		t.Fatalf("idle rebalancer changed π by %v; must be invisible", d)
	}
	if d := mathx.MaxAbsDiff(plain.State.Theta, mitigated.State.Theta); d != 0 {
		t.Fatalf("idle rebalancer changed θ by %v", d)
	}
	if got := mitigated.Metrics.Counters[obs.CtrReshardWindows]; got != iters/2 {
		t.Fatalf("reshard windows = %d, want %d", got, iters/2)
	}
	if got := mitigated.Metrics.Counters[obs.CtrReshardChanges]; got != 0 {
		t.Fatalf("idle run recorded %d weight changes; want 0", got)
	}
}

// TestRebalanceTrajectoryBitExact is the acceptance test of the tentpole:
// under a compute-proportional straggler (rank 1's update_phi sleeps per
// assigned node — the fault re-sharding can actually cure), the rebalancer
// must actually move work away from rank 1, and the trained trajectory must
// STILL be bit-identical to the unmitigated run: φ draws are keyed by
// (iteration, vertex) and the θ fold is chunk-ordered, so re-sharding changes
// who computes, never what is computed.
func TestRebalanceTrajectoryBitExact(t *testing.T) {
	train, held := fixture(t, 200, 4, 900, 61)
	cfg := core.DefaultConfig(4, 303)
	const iters, ranks = 12, 2

	base := Options{
		Ranks: ranks, Iterations: iters, MinibatchPairs: 32,
	}
	plain, err := Run(cfg, train, held, base)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	opt := base
	opt.Rebalance = true
	opt.RebalanceCfg = aggressiveRebalance()
	opt.Events = sink
	opt.ComputeDelay = func(rank, nodes int) time.Duration {
		if rank != 1 {
			return 0
		}
		return time.Duration(nodes) * 500 * time.Microsecond
	}
	mitigated, err := Run(cfg, train, held, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	if d := mathx.MaxAbsDiff32(plain.State.Pi, mitigated.State.Pi); d != 0 {
		t.Fatalf("re-sharding changed π by %v; must be bit-exact", d)
	}
	if d := mathx.MaxAbsDiff(plain.State.Theta, mitigated.State.Theta); d != 0 {
		t.Fatalf("re-sharding changed θ by %v; must be bit-exact", d)
	}
	if d := mathx.MaxAbsDiff(plain.State.PhiSum, mitigated.State.PhiSum); d != 0 {
		t.Fatalf("re-sharding changed Σφ by %v; must be bit-exact", d)
	}

	// The mitigation must have actually engaged: with ~16ms of injected
	// compute per window against a ~1ms flagging floor, rank 1 is flagged
	// and drained deterministically.
	if got := mitigated.Metrics.Counters[obs.CtrReshardChanges]; got < 1 {
		t.Fatalf("reshard changes = %d; straggler never triggered a rebalance", got)
	}
	if got := mitigated.Metrics.Counters[obs.CtrReshardFlags]; got < 1 {
		t.Fatalf("reshard flags = %d; rank 1 never flagged", got)
	}

	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatalf("stream is not valid JSONL: %v", err)
	}
	sum, err := obs.Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rebalances < 1 {
		t.Fatalf("summary counted %d rebalance events; want >= 1", sum.Rebalances)
	}
	if len(sum.FinalWeights) != ranks || sum.FinalWeights[1] >= 1 {
		t.Fatalf("final weights %v; want rank 1 drained below 1", sum.FinalWeights)
	}
}

// TestCheckpointRestartBitExact pins the recovery invariant: a run that
// checkpoints periodically is bit-identical to one that doesn't, and a run
// restarted from the checkpoint finishes bit-identical to one that never
// stopped — every random draw is keyed by the absolute iteration, so the
// chain has no hidden state beyond (π, Σφ, θ, t).
func TestCheckpointRestartBitExact(t *testing.T) {
	train, held := fixture(t, 200, 4, 900, 62)
	cfg := core.DefaultConfig(4, 404)
	const iters, every = 10, 4

	base := Options{Ranks: 3, Iterations: iters}
	straight, err := Run(cfg, train, held, base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt := base
	opt.CheckpointPath = path
	opt.CheckpointEvery = every
	ckpted, err := Run(cfg, train, held, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := mathx.MaxAbsDiff32(straight.State.Pi, ckpted.State.Pi); d != 0 {
		t.Fatalf("checkpointing changed π by %v; must be invisible", d)
	}

	// The file holds the last boundary the run crossed: iterations 4 and 8
	// both saved, 8 overwrote 4.
	_, iter, err := core.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 8 {
		t.Fatalf("checkpoint iteration = %d, want 8", iter)
	}

	opt = base
	opt.RestartPath = path
	resumed, err := Run(cfg, train, held, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := mathx.MaxAbsDiff32(straight.State.Pi, resumed.State.Pi); d != 0 {
		t.Fatalf("resumed π differs by %v from the uninterrupted run", d)
	}
	if d := mathx.MaxAbsDiff(straight.State.Theta, resumed.State.Theta); d != 0 {
		t.Fatalf("resumed θ differs by %v from the uninterrupted run", d)
	}
	if d := mathx.MaxAbsDiff(straight.State.PhiSum, resumed.State.PhiSum); d != 0 {
		t.Fatalf("resumed Σφ differs by %v from the uninterrupted run", d)
	}
}

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
		if err := st.SaveFile(path, iter); err != nil {
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
