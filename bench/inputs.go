package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
)

// Pinned parameters. They are the benchmark's definition: a change here is a
// change of the benchmark and re-measures every baseline.
const (
	defaultSeed = 20160523 // IPDPS 2016
	secondSeed  = 19870312 // the seed later claims are re-checked on
	refSeconds  = 10       // the run length BENCHMARK.json fixes

	modelK        = 64  // latent communities
	minibatchM    = 512 // minibatch pairs
	neighborCount = 32  // |V_n|
	evalEvery     = 50  // iterations between held-out evaluations

	hotCacheRows = 4096  // dist_tcp_hot: rows per rank
	tierHotRows  = 20000 // mmap_tiered: hot tier, 10 % of g200k
	mmapSeals    = 5     // mmap_tiered: Seal() calls per pass, evenly spaced
	publishEvery = 20    // train_serve: iterations between publishes

	queryRate    = 2000.0 // train_serve: queries per second, open loop
	queryConns   = 2      // keep-alive HTTP connections
	queryLimitMS = 10.0   // the latency limit of query_within_limit_frac
	verifyOneIn  = 100    // share of /topk bodies recomputed from the snapshot
	keptVersions = 4      // snapshots the verifier keeps (Publisher.Subscribe)
)

// ppxPin is a pinned ppx_target: the held-out perplexity time_to_ppx_s and
// iters_to_ppx run to, and the iteration at which the tree this benchmark was
// written against first evaluates at or below it. A pass at least that long
// that never gets there has failed.
type ppxPin struct {
	Target float64
	ByIter int
}

// ppxTargets holds the pins, per seed: the perplexity series is a function of
// the seed alone (workloads 1–3 share it bit for bit), so a target means
// something only on the seed it was read from. Each is first crossed at 60–80 %
// of the shortest pass that reports it (250 iterations at the contract's
// 10 s), with the evaluations either side well clear of it: seed 20160523
// evaluates to 21.50 at iteration 150 and 20.91 at 200, seed 19870312 to
// 18.95 at 100 and 18.04 at 150. Other seeds have no target, and the two
// convergence metrics read 0 on them.
var ppxTargets = map[uint64]ppxPin{
	defaultSeed: {Target: 21.2, ByIter: 200},
	secondSeed:  {Target: 18.5, ByIter: 150},
}

// graphSpec names one generated input.
type graphSpec struct {
	Name                         string
	Vertices, Communities, Edges int
}

var (
	g20k  = graphSpec{"g20k", 20_000, 32, 200_000}      // π = 5 MB: fits L2+L3
	g100k = graphSpec{"g100k", 100_000, 64, 1_000_000}  // π = 25 MB
	g200k = graphSpec{"g200k", 200_000, 128, 2_000_000} // π = 53 MB: the size of this host's L3
)

// itersPerSecond is the iteration budget per second of -seconds, per
// workload: budgets are counts, so that counts repeat exactly, sized from the
// unmodified tree on the reference 2-core host so that the timed pass lasts
// about -seconds there. A faster tree finishes sooner; the budget does not
// follow it.
var itersPerSecond = map[string]float64{
	wSeq:     100,
	wDist:    60,
	wDistHot: 55,
	wMmap:    27,
	wServe:   33,
}

// inputs is what the program under test receives: the generated graph, its
// held-out split and the model configuration. It never sees the seed's
// identity or the workload's name.
type inputs struct {
	Spec  graphSpec
	Train *graph.Graph
	Held  *graph.HeldOut
	Cfg   core.Config
}

// makeInputs generates spec from the seed: gen.DefaultPlanted(seed), held-out
// = |E|/20 via graph.Split(seed+1), core.DefaultConfig(K, seed+4).
func makeInputs(spec graphSpec, seed uint64) (*inputs, error) {
	g, _, err := gen.Planted(gen.DefaultPlanted(spec.Vertices, spec.Communities, spec.Edges, seed))
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", spec.Name, err)
	}
	train, held, err := graph.Split(g, g.NumEdges()/20, mathx.NewRNG(seed+1))
	if err != nil {
		return nil, fmt.Errorf("splitting %s: %w", spec.Name, err)
	}
	return &inputs{Spec: spec, Train: train, Held: held, Cfg: core.DefaultConfig(modelK, seed+4)}, nil
}

// budget is a workload's iteration plan for one pass.
type budget struct {
	Iters        int
	EvalEvery    int // 0: one evaluation after the pass
	SealEvery    int // mmap_tiered
	PublishEvery int // train_serve
}

// planBudget turns seconds into an iteration count for workload. The count
// is a multiple of the workload's interval (the distributed engine evaluates
// only at multiples of EvalEvery); budgets too small for two intervals (the
// smoke test) shrink the interval instead.
func planBudget(workload string, seconds float64) budget {
	n := int(math.Round(itersPerSecond[workload] * seconds))
	fit := func(nominal int) int {
		if n < 2*nominal {
			return max(n/2, 1)
		}
		return nominal
	}
	var b budget
	step := 1
	switch workload {
	case wSeq, wDist, wDistHot:
		b.EvalEvery = fit(evalEvery)
		step = b.EvalEvery
	case wMmap:
		b.SealEvery = max(n/mmapSeals, 1)
		step = b.SealEvery
	case wServe:
		b.PublishEvery = fit(publishEvery)
		step = b.PublishEvery
	}
	b.Iters = max(n/step, 2) * step
	if workload == wMmap {
		b.Iters = mmapSeals * b.SealEvery
	}
	return b
}

// scaled returns the budget for a pass over the given share of b, keeping
// the intervals and their divisibility.
func (b budget) scaled(share float64) budget {
	step := max(b.EvalEvery, b.SealEvery, b.PublishEvery, 1)
	out := b
	if b.SealEvery > 0 {
		out.SealEvery = max(int(float64(b.SealEvery)*share), 1)
		out.Iters = mmapSeals * out.SealEvery
		return out
	}
	out.Iters = max(int(float64(b.Iters)*share)/step, 2) * step
	return out
}
