package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/store"
)

// ThetaChunk is the fixed chunk size for the θ-gradient reduction and
// PerplexityChunk the one for held-out evaluation. Keeping them constant
// (rather than derived from the worker count) makes the floating-point
// summation order — and therefore the trained model — identical across
// thread counts and across the sequential and distributed engines; the
// distributed engine additionally aligns its rank partitions to these chunk
// sizes so its fold order matches exactly.
const (
	ThetaChunk      = 64
	PerplexityChunk = 256
)

// Sampler runs Algorithm 1 on a single node, sequentially (Threads = 1) or
// with OpenMP-style thread parallelism over the minibatch vertices. It is
// built from the same stage layer as the distributed engine (phases.go),
// wired to a store.LocalStore over its State. It is the reference the
// distributed engine's parity tests hold every configuration to, and the
// engine the benchmark and the examples drive step by step; the trainer
// runs the distributed engine at every rank count.
type Sampler struct {
	Cfg       Config
	Graph     *graph.Graph
	Held      *graph.HeldOut
	State     *State
	Edges     sampling.EdgeStrategy
	Neighbors sampling.NeighborStrategy
	Threads   int

	// Phases accumulates per-stage wall-clock time under the same Table III
	// stage names the distributed engine reports. It is ob's phase table.
	Phases *obs.Phases

	// ob is the sampler's one observer: the phase table above plus the
	// optional tracer of SamplerOptions.
	ob *obs.Observer

	t     int
	batch sampling.Batch
	loop  *engine.Loop
	eval  *HeldOutEval
	// phi is the persistent update_phi stage; it owns the staging buffers
	// and per-worker scratch that make the steady-state iteration
	// allocation-free.
	phi *PhiStage

	// staging area for the φ phase: newPhi[i] is the pending row for
	// batch.Nodes[i]; committed only after every row is computed.
	newPhi []float64

	// pub drives the optional snapshot publication stage
	// (SamplerOptions.Publisher).
	pub *store.Publisher

	// pi is the π backend, built once: SamplerOptions.Store when set (the
	// State is then a shell with nil Pi/PhiSum), otherwise a LocalStore over
	// the State's arrays. Every π access goes through it.
	pi store.PiStore
}

// SamplerOptions configures NewSampler beyond the model Config.
type SamplerOptions struct {
	// MinibatchPairs is the edge minibatch size for the random-pair
	// strategy; ignored when Stratified is true.
	MinibatchPairs int
	// Stratified selects stratified random node sampling (the strategy of
	// Li et al.) instead of random pairs.
	Stratified bool
	// NeighborCount is |V_n|, the neighbor subsample size per minibatch
	// vertex; 0 defaults to 32.
	NeighborCount int
	// UniformNeighbors selects the paper's Eqn (5) uniform neighbor
	// sampling; the default is the lower-variance link+uniform strategy.
	UniformNeighbors bool
	// Threads is the shared-memory worker count; 0 uses GOMAXPROCS.
	Threads int
	// Tracer, when non-nil, records per-iteration and per-stage spans (the
	// single-rank timeline; no collectives or DKV traffic exist here): into
	// the run log when the tracer streams, else into its buffer for Bundle.
	Tracer *obs.Tracer
	// Publisher, when non-nil, receives a sealed store.Snapshot of π/β after
	// the write barrier of every PublishEvery-th iteration (version = number
	// of completed iterations) — the feed of the internal/serve read tier.
	// Publication only reads sealed state, so the trained trajectory is
	// bit-identical with or without it.
	Publisher *store.Publisher
	// PublishEvery is the publication interval in iterations; ≤ 1 publishes
	// every iteration (engine.Every). Ignored when Publisher is nil.
	PublishEvery int
	// Store, when non-nil, is an external π backend (mmap, tiered, DKV) the
	// sampler trains against instead of in-RAM State slabs — the out-of-core
	// path. Its dimensions must match the graph and cfg.K, and it must
	// already hold the initial rows (ShellInit(cfg) per vertex). All
	// backends share the row codec and
	// SetPhiRow arithmetic, so the trajectory is bit-identical to the
	// in-RAM sampler's. Prefer TryStep over Step: store errors (a torn
	// shard, a failed fault) are runtime conditions, not programming bugs.
	Store store.PiStore
}

// Stratum sizes of the stratified strategy (Li et al.): the link stratum is
// picked with probability stratLinkProb, and a non-link stratum holds
// stratNonLinks vertices.
const (
	stratLinkProb = 0.5
	stratNonLinks = 32
)

// withDefaults fills the zero strategy parameters: 128 pairs and
// |V_n| = 32. It is the one place those defaults live — the sequential
// sampler and every distributed rank build their strategies through the two
// constructors below, so the engines cannot drift apart and silently break
// seq ≡ dist parity.
func (opt SamplerOptions) withDefaults() SamplerOptions {
	if opt.NeighborCount == 0 {
		opt.NeighborCount = 32
	}
	if opt.MinibatchPairs == 0 {
		opt.MinibatchPairs = 128
	}
	return opt
}

// NewEdgeStrategy builds the minibatch strategy opt selects over g.
func NewEdgeStrategy(opt SamplerOptions, g *graph.Graph, excluded *graph.EdgeSet) (edges sampling.EdgeStrategy, err error) {
	opt = opt.withDefaults()
	if opt.Stratified {
		edges, err = sampling.NewStratifiedNode(g, excluded, stratLinkProb, stratNonLinks)
	} else {
		edges, err = sampling.NewRandomPair(g, excluded, opt.MinibatchPairs)
	}
	if err != nil {
		return nil, fmt.Errorf("core: edge strategy: %w", err)
	}
	return edges, nil
}

// NewNeighborStrategy builds the neighbour strategy opt selects over view.
func NewNeighborStrategy(opt SamplerOptions, view sampling.View) (neigh sampling.NeighborStrategy, err error) {
	opt = opt.withDefaults()
	if opt.UniformNeighbors {
		neigh, err = sampling.NewUniformNeighbors(view, opt.NeighborCount)
	} else {
		neigh, err = sampling.NewLinkPlusUniform(view, opt.NeighborCount)
	}
	if err != nil {
		return nil, fmt.Errorf("core: neighbor strategy: %w", err)
	}
	return neigh, nil
}

// NewSampler wires a sampler for a training graph and held-out set. held may
// be nil (no perplexity tracking; useful in micro-benchmarks).
func NewSampler(cfg Config, g *graph.Graph, held *graph.HeldOut, opt SamplerOptions) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var state *State
	var err error
	if opt.Store != nil {
		if opt.Store.NumRows() != g.NumVertices() || opt.Store.K() != cfg.K {
			return nil, fmt.Errorf("core: external store is %d×%d, run needs %d×%d",
				opt.Store.NumRows(), opt.Store.K(), g.NumVertices(), cfg.K)
		}
		state, err = NewStateShell(cfg, g.NumVertices())
	} else {
		state, err = NewState(cfg, g.NumVertices())
	}
	if err != nil {
		return nil, err
	}
	var excluded *graph.EdgeSet
	if held != nil {
		set := graph.NewEdgeSet(held.Len())
		for _, e := range held.Pairs {
			set.Add(e)
		}
		excluded = &set
	}
	edges, err := NewEdgeStrategy(opt, g, excluded)
	if err != nil {
		return nil, err
	}
	neigh, err := NewNeighborStrategy(opt, sampling.NewGraphView(g, excluded))
	if err != nil {
		return nil, err
	}

	s := &Sampler{
		Cfg:       cfg,
		Graph:     g,
		Held:      held,
		State:     state,
		Edges:     edges,
		Neighbors: neigh,
		Threads:   opt.Threads,
		ob:        &obs.Observer{Phases: obs.NewPhases(), Tracer: opt.Tracer},
		pub:       opt.Publisher,
		pi:        opt.Store,
	}
	s.Phases = s.ob.Phases
	if s.pi == nil {
		s.pi = store.NewLocal(state.Pi, state.PhiSum, cfg.K, s.Threads)
	}
	if held != nil {
		s.eval = NewHeldOutEval(held, cfg.Delta, 0, held.Len())
	}
	s.phi = &PhiStage{
		Cfg:     &s.Cfg,
		Store:   s.pi,
		Neigh:   s.Neighbors,
		Threads: s.Threads,
		Obs:     s.ob,
	}
	s.loop = s.buildLoop(opt.PublishEvery)
	if err := s.loop.Validate([]string{"graph", "pi", "theta", "beta"}); err != nil {
		return nil, err
	}
	return s, nil
}

// buildLoop assembles the iteration from the shared stages. The stage list
// is the local specialisation of the paper's Table III: no deploy/collective
// stages, and the in-memory store makes every load local.
func (s *Sampler) buildLoop(publishEvery int) *engine.Loop {
	loop := &engine.Loop{
		Obs: s.ob,
		Stages: []engine.Stage{
			{
				Name:   engine.PhaseDrawMinibatch,
				Reads:  []string{"graph"},
				Writes: []string{"batch"},
				Run: func(t int) error {
					DrawMinibatch(&s.Cfg, s.Edges, t, &s.batch)
					return nil
				},
			},
			{
				Name:   engine.PhaseUpdatePhi,
				Reads:  []string{"batch", "pi", "beta"},
				Writes: []string{"new_phi"},
				Run: func(t int) error {
					k := s.Cfg.K
					n := len(s.batch.Nodes)
					if cap(s.newPhi) < n*k {
						s.newPhi = make([]float64, n*k)
					}
					s.newPhi = s.newPhi[:n*k]
					return s.phi.Run(t, s.Cfg.StepSize(t), s.batch.Nodes, s.State.Beta, s.newPhi)
				},
			},
			{
				Name:   engine.PhaseUpdatePi,
				Reads:  []string{"batch", "new_phi"},
				Writes: []string{"pi"},
				Run: func(t int) error {
					return s.pi.WriteRows(s.batch.Nodes, s.newPhi)
				},
			},
			{
				Name:   engine.PhaseUpdateBetaTheta,
				Reads:  []string{"batch", "pi", "theta"},
				Writes: []string{"theta", "beta"},
				Run: func(t int) error {
					k := s.Cfg.K
					partials, err := ThetaPartials(&s.Cfg, s.pi, s.batch.Pairs, s.batch.Linked,
						s.State.Theta, s.State.Beta, s.Threads)
					if err != nil {
						return err
					}
					grad := make([]float64, 2*k)
					FoldThetaPartials(grad, partials, k)
					ApplyThetaUpdate(&s.Cfg, s.Cfg.StepSize(t), s.batch.Scale, grad, s.State.Theta,
						mathx.NewStream(s.Cfg.Seed, StreamTheta(t)))
					s.State.RefreshBeta()
					return nil
				},
			},
		},
	}
	if s.pub != nil {
		// The sequential loop has no collective barriers: a stage boundary at
		// the end of the iteration IS the phase barrier (no writes can be in
		// flight), so the publication stage carries the Barrier mark itself.
		loop.Stages = append(loop.Stages, engine.Stage{
			Name:      engine.PhasePublish,
			Reads:     []string{"pi", "beta"},
			Publishes: []string{"pi"},
			Barrier:   true,
			Due:       engine.Every(publishEvery),
			Run:       s.publishStage,
		})
	}
	return loop
}

// publishStage seals the post-iteration state into an immutable snapshot and
// hands it to the publisher; the loop runs it after every PublishEvery-th
// iteration. Version t+1 = iterations completed. The stage only reads — π
// through the same store view the training stages use, β from the state —
// so enabling it cannot perturb the trained trajectory.
func (s *Sampler) publishStage(t int) error {
	snap, err := store.TakeSnapshot(s.pi, t+1, s.State.Beta)
	if err != nil {
		return err
	}
	return s.pub.Publish(snap)
}

// Iteration returns the number of completed iterations.
func (s *Sampler) Iteration() int { return s.t }

// Step executes one iteration of Algorithm 1: sample E_n; update φ and π for
// every vertex in the minibatch; update θ and β from the minibatch pairs.
// With the in-memory store a stage error is a programming bug, so Step
// panics on it; out-of-core runs should use TryStep, where an I/O fault is
// a runtime condition the caller can handle.
func (s *Sampler) Step() {
	if err := s.TryStep(); err != nil {
		panic(fmt.Sprintf("core: iteration %d: %v", s.t, err))
	}
}

// TryStep executes one iteration, returning any stage error (an external π
// backend can genuinely fail: a torn shard, a disk fault, a lost peer). The
// iteration counter advances only on success.
func (s *Sampler) TryStep() error {
	if err := s.loop.RunIteration(s.t); err != nil {
		return err
	}
	s.t++
	return nil
}

// Run executes n iterations.
func (s *Sampler) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// EvalPerplexity folds the current state into the running posterior average
// and returns the averaged perplexity (Eqn 7). It panics if the sampler was
// built without a held-out set.
func (s *Sampler) EvalPerplexity() float64 {
	if s.eval == nil {
		panic("core: sampler has no held-out set")
	}
	defer s.ob.Interval(obs.NoIter, engine.PhasePerplexity, obs.TraceNow())
	partials, err := s.eval.Fold(s.pi, s.State.Beta, s.Threads)
	if err != nil {
		panic(fmt.Sprintf("core: perplexity: %v", err))
	}
	var logSum float64
	for _, v := range partials {
		logSum += v
	}
	return PerplexityFromLogSum(logSum, s.Held.Len())
}

// LastBatch exposes the most recent minibatch; used by diagnostics and the
// distributed engine's equivalence tests.
func (s *Sampler) LastBatch() *sampling.Batch { return &s.batch }
