package dist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/sampling"
	"repro/internal/wire"
)

func fixture(t testing.TB, n, k, edges int, seed uint64) (*graph.Graph, *graph.HeldOut) {
	t.Helper()
	g, _, err := gen.Planted(gen.DefaultPlanted(n, k, edges, seed))
	if err != nil {
		t.Fatal(err)
	}
	train, held, err := graph.Split(g, g.NumEdges()/10, mathx.NewRNG(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return train, held
}

// TestDistributedMatchesSequential is the central correctness property of
// the engine (DESIGN.md invariant 4): with the same seeds, the distributed
// run must reproduce the single-node sampler bit for bit — same π, same θ —
// because every random draw comes from the same (iteration, vertex) stream
// and every floating-point fold uses the same chunk-aligned order.
func TestDistributedMatchesSequential(t *testing.T) {
	train, held := fixture(t, 240, 5, 1200, 51)
	const iters = 12
	cfg := core.DefaultConfig(5, 1234)

	seq, err := core.NewSampler(cfg, train, held, core.SamplerOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run(iters)

	for _, ranks := range []int{1, 2, 3, 5} {
		res, err := Run(cfg, train, held, Options{
			Ranks: ranks, Threads: 2, Iterations: iters,
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if d := mathx.MaxAbsDiff32(seq.State.Pi, res.State.Pi); d != 0 {
			t.Fatalf("ranks=%d: π differs from sequential by %v; want bit-exact", ranks, d)
		}
		if d := mathx.MaxAbsDiff(seq.State.Theta, res.State.Theta); d != 0 {
			t.Fatalf("ranks=%d: θ differs from sequential by %v; want bit-exact", ranks, d)
		}
		if d := mathx.MaxAbsDiff(seq.State.PhiSum, res.State.PhiSum); d != 0 {
			t.Fatalf("ranks=%d: Σφ differs from sequential by %v", ranks, d)
		}
	}
}

// TestPipelinedMatchesSerial verifies that double buffering is a pure
// performance optimisation: pipelined and non-pipelined runs produce
// identical chains.
func TestPipelinedMatchesSerial(t *testing.T) {
	train, held := fixture(t, 200, 4, 1000, 52)
	cfg := core.DefaultConfig(4, 77)
	const iters = 10
	plain, err := Run(cfg, train, held, Options{Ranks: 3, Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	piped, err := Run(cfg, train, held, Options{Ranks: 3, Iterations: iters, Pipeline: true, PhiChunkNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := mathx.MaxAbsDiff32(plain.State.Pi, piped.State.Pi); d != 0 {
		t.Fatalf("pipelining changed π by %v; must be identical", d)
	}
	if d := mathx.MaxAbsDiff(plain.State.Theta, piped.State.Theta); d != 0 {
		t.Fatalf("pipelining changed θ by %v; must be identical", d)
	}
}

// TestDistributedPerplexityMatchesSequential checks the distributed Eqn (7)
// evaluation against the single-node averager, including the running
// average across multiple evaluations.
func TestDistributedPerplexityMatchesSequential(t *testing.T) {
	train, held := fixture(t, 220, 4, 1100, 53)
	cfg := core.DefaultConfig(4, 99)
	const iters, every = 9, 3

	seq, err := core.NewSampler(cfg, train, held, core.SamplerOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var seqVals []float64
	for i := 0; i < iters; i++ {
		seq.Step()
		if (i+1)%every == 0 {
			seqVals = append(seqVals, seq.EvalPerplexity())
		}
	}

	res, err := Run(cfg, train, held, Options{Ranks: 4, Iterations: iters, EvalEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Perplexity) != len(seqVals) {
		t.Fatalf("got %d eval points, want %d", len(res.Perplexity), len(seqVals))
	}
	for i, p := range res.Perplexity {
		if p.Value != seqVals[i] {
			t.Fatalf("eval %d: distributed %v != sequential %v", i, p.Value, seqVals[i])
		}
		if p.Iter != (i+1)*every {
			t.Fatalf("eval %d at iteration %d, want %d", i, p.Iter, (i+1)*every)
		}
	}
}

func TestStratifiedDistributedMatchesSequential(t *testing.T) {
	train, held := fixture(t, 200, 4, 1000, 54)
	cfg := core.DefaultConfig(4, 31)
	const iters = 8
	seq, err := core.NewSampler(cfg, train, held, core.SamplerOptions{
		Stratified: true, LinkProb: 0.4, NonLinkCount: 12, Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run(iters)
	res, err := Run(cfg, train, held, Options{
		Ranks: 3, Iterations: iters, Stratified: true, LinkProb: 0.4, NonLinkCount: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := mathx.MaxAbsDiff32(seq.State.Pi, res.State.Pi); d != 0 {
		t.Fatalf("stratified: π differs by %v", d)
	}
}

func TestUniformNeighborsDistributedMatchesSequential(t *testing.T) {
	train, held := fixture(t, 200, 4, 1000, 55)
	cfg := core.DefaultConfig(4, 41)
	const iters = 8
	seq, err := core.NewSampler(cfg, train, held, core.SamplerOptions{
		UniformNeighbors: true, NeighborCount: 16, Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run(iters)
	res, err := Run(cfg, train, held, Options{
		Ranks: 4, Iterations: iters, UniformNeighbors: true, NeighborCount: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := mathx.MaxAbsDiff32(seq.State.Pi, res.State.Pi); d != 0 {
		t.Fatalf("uniform neighbors: π differs by %v", d)
	}
}

func TestRemoteFractionScalesWithRanks(t *testing.T) {
	train, held := fixture(t, 400, 4, 2000, 56)
	cfg := core.DefaultConfig(4, 5)
	for _, ranks := range []int{2, 4} {
		res, err := Run(cfg, train, held, Options{Ranks: ranks, Iterations: 10})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(ranks-1) / float64(ranks)
		if math.Abs(res.RemoteFrac-want) > 0.12 {
			t.Fatalf("ranks=%d: remote fraction %.3f, want ≈%.3f", ranks, res.RemoteFrac, want)
		}
	}
}

func TestResultCarriesPhases(t *testing.T) {
	train, held := fixture(t, 150, 4, 700, 57)
	cfg := core.DefaultConfig(4, 6)
	res, err := Run(cfg, train, held, Options{Ranks: 2, Iterations: 5, EvalEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{engine.PhaseDeployMinibatch, engine.PhaseUpdatePhi, engine.PhaseUpdatePi, engine.PhaseUpdateBetaTheta, engine.PhasePerplexity, engine.PhaseTotal} {
		if res.Phases.Total(phase) == 0 {
			t.Errorf("phase %q has no recorded time", phase)
		}
	}
	if len(res.RankPhases) != 2 {
		t.Fatalf("rank phases = %d, want 2", len(res.RankPhases))
	}
	if res.DKV.RemoteKeys == 0 {
		t.Error("no remote DKV traffic recorded with 2 ranks")
	}
	if err := res.State.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	train, held := fixture(t, 100, 4, 500, 58)
	cfg := core.DefaultConfig(4, 7)
	if _, err := Run(cfg, train, held, Options{Ranks: 2}); err == nil {
		t.Fatal("zero iterations accepted")
	}
	if _, err := Run(cfg, train, nil, Options{Ranks: 2, Iterations: 1, EvalEvery: 1}); err == nil {
		t.Fatal("EvalEvery without held-out accepted")
	}
	bad := cfg
	bad.K = 0
	if _, err := Run(bad, train, held, Options{Ranks: 2, Iterations: 1}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDeploymentRoundTrip(t *testing.T) {
	d := &deployment{
		iter:    42,
		nodes:   []int32{5, 9},
		adj:     [][]int32{{1, 2, 3}, {}},
		pairs:   []graph.Edge{{A: 1, B: 2}, {A: 3, B: 9}},
		link:    []bool{true, false},
		scale:   123.456,
		chunkLo: 7,
	}
	got, err := decodeDeployment(encodeDeployment(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.iter != 42 || got.scale != 123.456 || got.chunkLo != 7 {
		t.Fatalf("header fields wrong: %+v", got)
	}
	if len(got.nodes) != 2 || got.nodes[1] != 9 {
		t.Fatalf("nodes wrong: %v", got.nodes)
	}
	if len(got.adj[0]) != 3 || got.adj[0][2] != 3 || len(got.adj[1]) != 0 {
		t.Fatalf("adjacency wrong: %v", got.adj)
	}
	if got.pairs[1] != (graph.Edge{A: 3, B: 9}) || got.link[0] != true || got.link[1] != false {
		t.Fatalf("pairs wrong: %v %v", got.pairs, got.link)
	}
}

// TestWorkerViewMatchesGraphView checks that a worker's scattered adjacency
// answers the strategies' link test (sampling.Linked over the vertex's own
// row) exactly as the master's edge hash (graph.HasEdge) does.
func TestWorkerViewMatchesGraphView(t *testing.T) {
	g, _, err := gen.Planted(gen.DefaultPlanted(100, 4, 400, 60))
	if err != nil {
		t.Fatal(err)
	}
	// Deploy all vertices.
	d := &deployment{nodes: make([]int32, 100), adj: make([][]int32, 100)}
	for a := 0; a < 100; a++ {
		d.nodes[a] = int32(a)
		d.adj[a] = g.Neighbors(a)
	}
	wv := newWorkerView(100, nil, nil)
	wv.load(d)
	for a := int32(0); a < 100; a++ {
		adj := wv.Neighbors(a)
		if len(adj) != g.Degree(int(a)) {
			t.Fatalf("degree(%d) mismatch", a)
		}
		for b := int32(0); b < 100; b++ {
			if sampling.Linked(adj, b) != g.HasEdge(int(a), int(b)) {
				t.Fatalf("Linked(%d,%d) disagrees with graph.HasEdge", a, b)
			}
		}
	}
}

func TestDeploymentRoundTripQuick(t *testing.T) {
	rng := mathx.NewRNG(123)
	for trial := 0; trial < 200; trial++ {
		nNodes := rng.Intn(20)
		d := &deployment{
			iter:    rng.Intn(1 << 20),
			nodes:   make([]int32, nNodes),
			adj:     make([][]int32, nNodes),
			scale:   rng.Float64() * 1e6,
			chunkLo: rng.Intn(1000),
		}
		for i := 0; i < nNodes; i++ {
			d.nodes[i] = int32(rng.Intn(1 << 20))
			adj := make([]int32, rng.Intn(8))
			for j := range adj {
				adj[j] = int32(rng.Intn(1 << 20))
			}
			d.adj[i] = adj
		}
		nPairs := rng.Intn(30)
		d.pairs = make([]graph.Edge, nPairs)
		d.link = make([]bool, nPairs)
		for i := 0; i < nPairs; i++ {
			d.pairs[i] = graph.Edge{A: int32(rng.Intn(1 << 20)), B: int32(rng.Intn(1 << 20))}
			d.link[i] = rng.Float64() < 0.5
		}

		got, err := decodeDeployment(encodeDeployment(d))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.iter != d.iter || got.scale != d.scale || got.chunkLo != d.chunkLo {
			t.Fatalf("trial %d: header mismatch", trial)
		}
		if len(got.nodes) != nNodes || len(got.pairs) != nPairs {
			t.Fatalf("trial %d: length mismatch", trial)
		}
		for i := range d.nodes {
			if got.nodes[i] != d.nodes[i] || len(got.adj[i]) != len(d.adj[i]) {
				t.Fatalf("trial %d: node %d mismatch", trial, i)
			}
			for j := range d.adj[i] {
				if got.adj[i][j] != d.adj[i][j] {
					t.Fatalf("trial %d: adjacency corrupted", trial)
				}
			}
		}
		for i := range d.pairs {
			if got.pairs[i] != d.pairs[i] || got.link[i] != d.link[i] {
				t.Fatalf("trial %d: pair %d mismatch", trial, i)
			}
		}
	}
}

// TestDecodeDeploymentRejectsShortBuffer: a frame cut short or carrying a
// count its bytes cannot back is a *DeploymentError naming the field, never
// a panic or an allocation on the sender's say-so. The first two frames
// used to panic with an index out of range.
func TestDecodeDeploymentRejectsShortBuffer(t *testing.T) {
	valid := encodeDeployment(&deployment{
		iter: 3, nodes: []int32{5}, adj: [][]int32{{1, 2}},
		pairs: []graph.Edge{{A: 1, B: 5}}, link: []bool{true}, scale: 2, chunkLo: 1,
	})
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = wire.AppendUint32(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		field string
	}{
		{"one node, no bytes for it", []byte{0, 0, 0, 0, 1, 0, 0, 0}, "node count"},
		{"no pair count", make([]byte, 8), "pair count"},
		{"empty", nil, "iteration"},
		{"three bytes", []byte{1, 2, 3}, "iteration"},
		{"huge node count", u32(0, math.MaxUint32), "node count"},
		{"huge degree", u32(0, 1, 7, math.MaxUint32), "adjacency"},
		{"huge pair count", u32(0, 0, math.MaxUint32), "pair count"},
		{"no scale", u32(0, 0, 0), "scale"},
		{"cut before the chunk offset", valid[:len(valid)-1], "chunk offset"},
		{"trailing byte", append(append([]byte(nil), valid...), 0), "trailing bytes"},
	} {
		d, err := decodeDeployment(tc.frame)
		var de *DeploymentError
		if !errors.As(err, &de) || de.Field != tc.field || de.Len != len(tc.frame) {
			t.Errorf("%s: decode = %+v, %v; want a *DeploymentError at the %s", tc.name, d, err, tc.field)
		}
	}
	if _, err := decodeDeployment(valid); err != nil {
		t.Fatalf("the valid frame: %v", err)
	}
}

// FuzzDecodeDeployment feeds the deployment decoder arbitrary frames, seeded
// with one a 2-rank run scattered and its truncations. Every frame must
// either fail as a *DeploymentError or decode to a deployment that encodes
// back to a frame of the same length and decodes again unchanged — never
// panic, and never allocate in proportion to a count the bytes do not back.
func FuzzDecodeDeployment(f *testing.F) {
	frame, err := tapDeployment(f, func(b []byte) []byte { return b })
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut += 1 + len(frame)/16 {
		f.Add(frame[:cut])
	}
	f.Add(frame)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := decodeDeployment(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			var de *DeploymentError
			if !errors.As(err, &de) {
				t.Fatalf("untyped deployment error: %v", err)
			}
			return
		}
		again := encodeDeployment(d)
		if len(again) != len(data) {
			t.Fatalf("a decoded deployment re-encodes to %d bytes, read from %d", len(again), len(data))
		}
		d2, err := decodeDeployment(again)
		if err != nil {
			t.Fatalf("a re-encoded deployment does not decode: %v", err)
		}
		if !bytes.Equal(encodeDeployment(d2), again) {
			t.Fatal("a deployment does not survive a second round trip")
		}
	})
}

// TestSeedParityTrajectory is the Ranks=1 regression anchor for the shared
// stage layer: a single-rank, single-thread distributed run must reproduce
// the sequential sampler's φ/θ trajectory bit for bit at EVERY iteration,
// not just at the end — the distributed engine is the same stage list with
// collectives wired in, so any divergence is a refactoring bug, caught at
// the first iteration it appears.
func TestSeedParityTrajectory(t *testing.T) {
	train, held := fixture(t, 150, 4, 700, 59)
	cfg := core.DefaultConfig(4, 4242)
	const iters = 6

	seq, err := core.NewSampler(cfg, train, held, core.SamplerOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for it := 1; it <= iters; it++ {
		seq.Step()
		res, err := Run(cfg, train, held, Options{Ranks: 1, Threads: 1, Iterations: it})
		if err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		for i, v := range seq.State.Pi {
			if math.Float32bits(v) != math.Float32bits(res.State.Pi[i]) {
				t.Fatalf("iteration %d: π[%d] = %v (dist) vs %v (seq); trajectories must be bit-identical", it, i, res.State.Pi[i], v)
			}
		}
		for i, v := range seq.State.PhiSum {
			if math.Float64bits(v) != math.Float64bits(res.State.PhiSum[i]) {
				t.Fatalf("iteration %d: Σφ[%d] diverged", it, i)
			}
		}
		for i, v := range seq.State.Theta {
			if math.Float64bits(v) != math.Float64bits(res.State.Theta[i]) {
				t.Fatalf("iteration %d: θ[%d] = %v (dist) vs %v (seq)", it, i, res.State.Theta[i], v)
			}
		}
	}
}

// TestSeedParityTrajectoryThreads pins the intra-rank threading contract:
// the per-iteration state must be bit-identical for Threads ∈ {1, 4} on both
// the sequential sampler and the 2-rank pipelined engine. Threading only
// moves which goroutine computes which vertex — every random draw comes from
// the per-(iteration, vertex) stream and every fold runs in fixed chunk
// order — so the fused kernels and scratch pooling must not change any
// summation order observably.
func TestSeedParityTrajectoryThreads(t *testing.T) {
	train, held := fixture(t, 150, 4, 700, 59)
	cfg := core.DefaultConfig(4, 4242)
	const iters = 5

	ref, err := core.NewSampler(cfg, train, held, core.SamplerOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	threaded, err := core.NewSampler(cfg, train, held, core.SamplerOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}

	check := func(it int, label string, pi []float32, phiSum, theta []float64) {
		t.Helper()
		for i, v := range ref.State.Pi {
			if math.Float32bits(v) != math.Float32bits(pi[i]) {
				t.Fatalf("iteration %d: %s π[%d] = %v vs %v (1-thread seq); must be bit-identical",
					it, label, i, pi[i], v)
			}
		}
		for i, v := range ref.State.PhiSum {
			if math.Float64bits(v) != math.Float64bits(phiSum[i]) {
				t.Fatalf("iteration %d: %s Σφ[%d] diverged", it, label, i)
			}
		}
		for i, v := range ref.State.Theta {
			if math.Float64bits(v) != math.Float64bits(theta[i]) {
				t.Fatalf("iteration %d: %s θ[%d] = %v vs %v (1-thread seq)",
					it, label, i, theta[i], v)
			}
		}
	}

	for it := 1; it <= iters; it++ {
		ref.Step()
		threaded.Step()
		check(it, "4-thread sequential", threaded.State.Pi, threaded.State.PhiSum, threaded.State.Theta)
		for _, threads := range []int{1, 4} {
			res, err := Run(cfg, train, held, Options{
				Ranks: 2, Threads: threads, Iterations: it, Pipeline: true,
			})
			if err != nil {
				t.Fatalf("iteration %d threads=%d: %v", it, threads, err)
			}
			check(it, fmt.Sprintf("2-rank %d-thread", threads), res.State.Pi, res.State.PhiSum, res.State.Theta)
		}
	}
}
