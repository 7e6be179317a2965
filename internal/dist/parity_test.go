package dist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dkv"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The parity matrix's run shape: every cell trains the same planted graph
// for parityIters iterations over parityPairs-pair minibatches, evaluating
// perplexity every parityEval; resume cells start from the checkpoint the
// reference wrote after parityResume iterations.
const (
	parityIters  = 9
	parityEval   = 3
	parityPairs  = 256
	parityResume = 4
)

// strategy names the minibatch and neighbour strategies of a cell; each has
// its own reference trajectory.
type strategy struct{ stratified, uniform bool }

// trajectory is what a cell records of its chain: the checkpoint bytes (π,
// Σφ, θ and the iteration count) after every iteration it ran, and its
// perplexity points.
type trajectory struct {
	strategy strategy
	from     int       // iterations completed before ckpt[0]'s iteration
	ckpt     [][]byte  // ckpt[i] is the checkpoint after iteration from+i+1
	perp     []float64 // perplexity at every parityEval-th iteration
	resumed  bool      // restored from a checkpoint: perp restarts, so it is not compared
}

// parityFixture is the one graph every cell trains, and the reference
// trajectories, computed on first use.
type parityFixture struct {
	cfg   core.Config
	train *graph.Graph
	held  *graph.HeldOut
	refs  map[strategy]trajectory
}

// reference is the oracle: core.Sampler at one thread over its in-RAM
// LocalStore.
func (f *parityFixture) reference(t *testing.T, s strategy) trajectory {
	t.Helper()
	ref, ok := f.refs[s]
	if !ok {
		ref = f.runCore(t, core.SamplerOptions{Threads: 1, Stratified: s.stratified, UniformNeighbors: s.uniform})
		f.refs[s] = ref
	}
	return ref
}

// check holds tr to its strategy's reference: byte-identical checkpoints at
// every iteration the cell ran and, unless it resumed, bit-identical
// perplexity points.
func (f *parityFixture) check(t *testing.T, tr trajectory) {
	t.Helper()
	ref := f.reference(t, tr.strategy)
	if len(tr.ckpt) != parityIters-tr.from {
		t.Fatalf("recorded %d checkpoints after iteration %d, want %d", len(tr.ckpt), tr.from, parityIters-tr.from)
	}
	for i, b := range tr.ckpt {
		if !bytes.Equal(b, ref.ckpt[tr.from+i]) {
			t.Fatalf("iteration %d: checkpoint differs from the reference", tr.from+i+1)
		}
	}
	if !tr.resumed && !bytes.Equal(wire.AppendFloat64s(nil, tr.perp), wire.AppendFloat64s(nil, ref.perp)) {
		t.Fatalf("perplexity points %v, reference %v", tr.perp, ref.perp)
	}
}

// resumeFile writes the reference's iteration-parityResume checkpoint to a
// file and returns its path.
func (f *parityFixture) resumeFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "resume.ckpt")
	if err := os.WriteFile(path, f.reference(t, strategy{}).ckpt[parityResume-1], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCore trains a core.Sampler cell, saving the store into a buffer after
// every TryStep. A sampler over an external store (opt.Store) must hold no
// in-RAM π.
func (f *parityFixture) runCore(t *testing.T, opt core.SamplerOptions) trajectory {
	t.Helper()
	opt.MinibatchPairs = parityPairs
	s, err := core.NewSampler(f.cfg, f.train, f.held, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps := opt.Store
	if ps != nil && (s.State.Pi != nil || s.State.PhiSum != nil) {
		t.Fatal("an external-store sampler allocated in-RAM π slabs")
	}
	if ps == nil {
		ps = store.NewLocal(s.State.Pi, s.State.PhiSum, f.cfg.K, 1)
	}
	tr := trajectory{strategy: strategy{opt.Stratified, opt.UniformNeighbors}}
	for s.Iteration() < parityIters {
		if err := s.TryStep(); err != nil {
			t.Fatalf("iteration %d: %v", s.Iteration(), err)
		}
		var buf bytes.Buffer
		if err := core.SaveStore(&buf, ps, s.State.Theta, s.Iteration()); err != nil {
			t.Fatal(err)
		}
		tr.ckpt = append(tr.ckpt, buf.Bytes())
		if s.Iteration()%parityEval == 0 {
			tr.perp = append(tr.perp, s.EvalPerplexity())
		}
	}
	return tr
}

// runDist trains a dist cell, over the in-process fabric or, when given,
// over conns. Rank 0 checkpoints every iteration; its FaultHook reads the
// file at the top of the next iteration, and the last file is read after
// the run.
func (f *parityFixture) runDist(t *testing.T, opt Options, conns []transport.Conn) (trajectory, *Result) {
	t.Helper()
	opt.Iterations, opt.EvalEvery, opt.MinibatchPairs = parityIters, parityEval, parityPairs
	tr := trajectory{strategy: strategy{opt.Stratified, opt.UniformNeighbors}}
	if opt.RestartPath != "" {
		tr.from, tr.resumed = parityResume, true
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt.CheckpointPath, opt.CheckpointEvery = path, 1
	opt.FaultHook = func(rank, iter int) error {
		if rank != 0 || iter == tr.from {
			return nil
		}
		b, err := os.ReadFile(path)
		tr.ckpt = append(tr.ckpt, b)
		return err
	}
	var res *Result
	var err error
	if conns == nil {
		res, err = Run(f.cfg, f.train, f.held, opt)
	} else {
		res, err = RunOnTransport(f.cfg, f.train, f.held, opt, conns)
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr.ckpt = append(tr.ckpt, b)
	if res.Resumed != tr.from {
		t.Fatalf("run resumed at iteration %d, want %d", res.Resumed, tr.from)
	}
	if !tr.resumed {
		tr.perp = perplexities(t, res)
	}
	return tr, res
}

// distCell is a dist cell that only trains: its checkpoints and
// perplexity points are all it is held to.
func (f *parityFixture) distCell(opt Options) func(*testing.T) trajectory {
	return func(t *testing.T) trajectory {
		tr, _ := f.runDist(t, opt, nil)
		return tr
	}
}

// readLog closes sink and parses the event log it wrote into buf.
func readLog(t *testing.T, sink *obs.Sink, buf *bytes.Buffer) []obs.Event {
	t.Helper()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// perplexities returns a dist run's perplexity values, checking they were
// taken at every parityEval-th iteration.
func perplexities(t *testing.T, res *Result) []float64 {
	t.Helper()
	var out []float64
	for i, p := range res.Perplexity {
		if p.Iter != (i+1)*parityEval {
			t.Fatalf("perplexity point %d at iteration %d, want %d", i, p.Iter, (i+1)*parityEval)
		}
		out = append(out, p.Value)
	}
	return out
}

// mmapStore is a sealed MmapStore holding the initial rows [lo, hi), the
// base of the out-of-core cells.
func (f *parityFixture) mmapStore(t *testing.T, lo, hi int) *store.MmapStore {
	t.Helper()
	ms, err := store.CreateMmap(t.TempDir(), hi-lo, f.cfg.K, store.MmapOptions{ShardRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	if err := ms.InitRows(func(i int, pi []float32) float64 { return core.InitPiRow(f.cfg, lo+i, pi) }); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Seal(); err != nil {
		t.Fatal(err)
	}
	return ms
}

// mmapCell trains a dist cell at ranks over caller-supplied MmapStore
// partitions, one per rank's dkv.Range; π stays in them, so the run
// gathers no state.
func (f *parityFixture) mmapCell(ranks int) func(*testing.T) trajectory {
	return func(t *testing.T) trajectory {
		parts := make([]store.PiStore, ranks)
		for r := range parts {
			lo, hi := dkv.Range(f.train.NumVertices(), ranks, r)
			parts[r] = f.mmapStore(t, lo, hi)
		}
		tr, res := f.runDist(t, Options{Ranks: ranks, Threads: 2, Partitions: parts}, nil)
		if res.State != nil {
			t.Fatal("a run over caller-supplied partitions gathered π into Result.State")
		}
		return tr
	}
}

// checkSnapshots holds a publishing run's snapshots to the reference: one
// per iteration, versions 1…parityIters, each one's π and β those of the
// reference checkpoint at its version. Both engines' publish cells pass it,
// so their snapshots are equal to each other too.
func (f *parityFixture) checkSnapshots(t *testing.T, snaps []*store.Snapshot) {
	t.Helper()
	ref := f.reference(t, strategy{})
	if len(snaps) != parityIters {
		t.Fatalf("published %d snapshots, want %d", len(snaps), parityIters)
	}
	for i, s := range snaps {
		if s.Version != i+1 {
			t.Fatalf("snapshot %d has version %d, want %d", i, s.Version, i+1)
		}
		st, _, err := core.Load(bytes.NewReader(ref.ckpt[i]))
		if err != nil {
			t.Fatal(err)
		}
		if s.N != st.N || s.K != st.K ||
			!bytes.Equal(wire.AppendFloat32s(nil, s.Pi), wire.AppendFloat32s(nil, st.Pi)) ||
			!bytes.Equal(wire.AppendFloat64s(nil, s.Beta), wire.AppendFloat64s(nil, st.Beta)) {
			t.Fatalf("snapshot v%d: π or β differs from the reference checkpoint at iteration %d", s.Version, i+1)
		}
	}
}

// subscribe returns a publisher that appends every snapshot to *snaps.
// Publish runs subscribers on the publishing rank's goroutine, which Run
// joins before returning.
func subscribe(snaps *[]*store.Snapshot) *store.Publisher {
	pub := store.NewPublisher()
	pub.Subscribe(func(s *store.Snapshot) { *snaps = append(*snaps, s) })
	return pub
}

// TestParityMatrix is the determinism contract (DESIGN.md invariant 4) in
// one table: every way the sampler can run — engine, ranks, threads,
// transport, pipeline, π backend, publication, telemetry, straggler
// mitigation, resume and strategy — trains the reference chain. Each cell
// records the checkpoint bytes after every iteration and its perplexity
// points, and must equal its strategy's reference: core.Sampler at one
// thread over its in-RAM store. Every random draw is keyed by (iteration,
// vertex) and every floating-point fold runs in a fixed chunk order, so none
// of these choices may move a single bit.
func TestParityMatrix(t *testing.T) {
	train, held := fixture(t, 400, 4, 2400, 51)
	f := &parityFixture{cfg: core.DefaultConfig(4, 1234), train: train, held: held, refs: map[strategy]trajectory{}}
	f.reference(t, strategy{})

	cells := []struct {
		name string
		run  func(t *testing.T) trajectory
	}{
		// Engine, ranks and threads.
		{"core/threads=4", func(t *testing.T) trajectory { return f.runCore(t, core.SamplerOptions{Threads: 4}) }},
		{"dist/ranks=1/threads=1", f.distCell(Options{Ranks: 1, Threads: 1})},
		{"dist/ranks=2/threads=1", f.distCell(Options{Ranks: 2, Threads: 1})},
		{"dist/ranks=2/threads=4", f.distCell(Options{Ranks: 2, Threads: 4})},
		{"dist/ranks=3/threads=2", f.distCell(Options{Ranks: 3, Threads: 2})},
		{"dist/ranks=5/threads=2/no-checkpoint", func(t *testing.T) trajectory {
			// Without CheckpointPath: only the state the run assembles at
			// its end is compared.
			res, err := Run(f.cfg, f.train, f.held, Options{
				Ranks: 5, Threads: 2, Iterations: parityIters, EvalEvery: parityEval, MinibatchPairs: parityPairs,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			st := res.State
			if err := core.SaveStore(&buf, store.NewLocal(st.Pi, st.PhiSum, st.K, 1), st.Theta, res.Iterations); err != nil {
				t.Fatal(err)
			}
			return trajectory{from: parityIters - 1, ckpt: [][]byte{buf.Bytes()}, perp: perplexities(t, res)}
		}},
		// Transport.
		{"dist/tcp/ranks=3", func(t *testing.T) trajectory {
			tr, _ := f.runDist(t, Options{Threads: 1}, dialTestMesh(t, 3))
			return tr
		}},
		{"dist/tcp/pipeline/ranks=2", func(t *testing.T) trajectory {
			// The configuration the dist_tcp benchmark runs: pooled TCP
			// frames released by the DKV client while the loader goroutine
			// reads beside the compute.
			tr, _ := f.runDist(t, Options{Threads: 1, Pipeline: true}, dialTestMesh(t, 2))
			return tr
		}},
		// Pipeline: at this minibatch size the automatic chunk policy cuts
		// at least two chunks per rank.
		{"dist/pipeline/ranks=2", f.distCell(Options{Ranks: 2, Threads: 4, Pipeline: true})},
		{"dist/pipeline/ranks=3", f.distCell(Options{Ranks: 3, Threads: 1, Pipeline: true})},
		// Backend.
		{"core/mmap", func(t *testing.T) trajectory {
			return f.runCore(t, core.SamplerOptions{Threads: 2, Store: f.mmapStore(t, 0, f.train.NumVertices())})
		}},
		{"core/tiered", func(t *testing.T) trajectory {
			tier, err := store.NewTiered(f.mmapStore(t, 0, f.train.NumVertices()), nil, 0, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			return f.runCore(t, core.SamplerOptions{Threads: 2, Store: tier})
		}},
		{"dist/mmap/ranks=1", f.mmapCell(1)},
		{"dist/mmap/ranks=2", f.mmapCell(2)},
		// Publish.
		{"core/publish", func(t *testing.T) trajectory {
			var snaps []*store.Snapshot
			tr := f.runCore(t, core.SamplerOptions{Threads: 2, Publisher: subscribe(&snaps)})
			f.checkSnapshots(t, snaps)
			return tr
		}},
		{"dist/publish/ranks=3", func(t *testing.T) trajectory {
			var snaps []*store.Snapshot
			pub := subscribe(&snaps)
			tr, _ := f.runDist(t, Options{Ranks: 3, Threads: 1, Publisher: pub}, nil)
			f.checkSnapshots(t, snaps)
			if pub.Current() != snaps[len(snaps)-1] {
				t.Fatal("the publisher's current snapshot is not the last one published")
			}
			return tr
		}},
		// Telemetry.
		{"dist/trace/ranks=3", func(t *testing.T) trajectory {
			tr, res := f.runDist(t, Options{Ranks: 3, Threads: 1, Trace: true}, nil)
			if len(res.Trace) != 3 {
				t.Fatalf("a buffered trace returned %d bundles, want one per rank", len(res.Trace))
			}
			return tr
		}},
		{"dist/events/ranks=3", func(t *testing.T) trajectory {
			var buf bytes.Buffer
			sink := obs.NewSink(&buf)
			tr, _ := f.runDist(t, Options{Ranks: 3, Threads: 1, Events: sink}, nil)
			sum, err := obs.Summarize(readLog(t, sink, &buf))
			if err != nil {
				t.Fatal(err)
			}
			if final := tr.perp[len(tr.perp)-1]; sum.Ranks != 3 || sum.Iterations != parityIters || sum.FinalPerplexity != final {
				t.Fatalf("event summary %d ranks, %d iterations, final perplexity %v; want 3, %d, %v",
					sum.Ranks, sum.Iterations, sum.FinalPerplexity, parityIters, final)
			}
			return tr
		}},
		// Rebalance.
		{"dist/rebalance-quiet/ranks=3", func(t *testing.T) trajectory {
			// Mitigation armed on a healthy cluster: whatever the windows
			// flag, the chain is the reference's.
			tr, res := f.runDist(t, Options{Ranks: 3, Threads: 1, Rebalance: true, RebalanceWindow: 2}, nil)
			if c := res.Metrics.Counters; c[obs.CtrReshardWindows] != parityIters/2 {
				t.Fatalf("%d reshard windows, want %d", c[obs.CtrReshardWindows], parityIters/2)
			}
			return tr
		}},
		{"dist/rebalance-engaged/ranks=2", func(t *testing.T) trajectory {
			// Rank 1's update_phi sleeps per assigned vertex: ~40 ms an
			// iteration against rank 0's checkpoint write and fsync, which
			// under a loaded host can take tens of milliseconds. It is
			// flagged in the first two windows and its share shrinks.
			var buf bytes.Buffer
			sink := obs.NewSink(&buf)
			tr, res := f.runDist(t, Options{
				Ranks: 2, Threads: 1, Events: sink, Rebalance: true, RebalanceWindow: 2,
				ComputeDelay: func(rank, nodes int) time.Duration {
					return time.Duration(rank*nodes) * 400 * time.Microsecond
				},
			}, nil)
			sum, err := obs.Summarize(readLog(t, sink, &buf))
			if err != nil {
				t.Fatal(err)
			}
			if c := res.Metrics.Counters; c[obs.CtrReshardChanges] < 1 || c[obs.CtrReshardFlags] < 1 ||
				sum.Rebalances < 1 || len(sum.FinalWeights) != 2 || sum.FinalWeights[1] >= 1 {
				t.Fatalf("the straggler was not drained: %d changes, %d flags, %d rebalance events, final weights %v",
					c[obs.CtrReshardChanges], c[obs.CtrReshardFlags], sum.Rebalances, sum.FinalWeights)
			}
			return tr
		}},
		// Resume from the reference's iteration-parityResume checkpoint.
		{"dist/resume/ranks=3", func(t *testing.T) trajectory {
			tr, _ := f.runDist(t, Options{Ranks: 3, Threads: 1, RestartPath: f.resumeFile(t)}, nil)
			return tr
		}},
		// Strategies, each against its own reference.
		{"dist/stratified/ranks=3", f.distCell(Options{Ranks: 3, Threads: 2, Stratified: true})},
		{"dist/uniform-neighbors/ranks=4", f.distCell(Options{Ranks: 4, Threads: 1, UniformNeighbors: true})},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) { f.check(t, c.run(t)) })
	}
}
