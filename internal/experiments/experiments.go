// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV). Model-driven experiments (Figures 1-5, Table III)
// use the DAS5-calibrated performance model at the paper's scale; real-run
// experiments (Figure 6, the scaling validation) execute the actual
// distributed engine on the scaled synthetic datasets. Each function returns
// a human-readable table whose rows/series correspond one-to-one with the
// paper's plot.
package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// TableII renders the dataset summary. With generate=true every preset is
// materialised and its realised statistics reported next to the paper's
// originals; otherwise only the targets are shown.
func TableII(generate bool) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — datasets (paper original vs scaled synthetic stand-in)\n")
	fmt.Fprintf(&b, "%-22s %12s %14s %10s | %9s %10s %7s %9s %9s\n",
		"name", "paper |V|", "paper |E|", "paper #gt", "sim |V|", "sim |E|", "sim #c", "overlap", "clustering")
	for _, p := range gen.Presets() {
		simE := p.Edges
		overlap, cc := "-", "-"
		if generate {
			g, gt, err := p.Generate()
			if err != nil {
				return "", err
			}
			simE = g.NumEdges()
			frac, err := gt.OverlapFraction(g.NumVertices())
			if err != nil {
				return "", err
			}
			overlap = fmt.Sprintf("%.2f", frac)
			cc = fmt.Sprintf("%.3f", graph.ClusteringCoefficient(g, 2000, mathx.NewRNG(p.Seed+7)))
		}
		fmt.Fprintf(&b, "%-22s %12d %14d %10d | %9d %10d %7d %9s %9s\n",
			p.Name, p.PaperVertices, p.PaperEdges, p.PaperCommunities,
			p.N, simE, p.Communities, overlap, cc)
	}
	return b.String(), nil
}

// Fig1 models the strong-scaling experiment: 2048 iterations of
// com-Friendster (K=1024, M=16384, |V_n|=32) across 8..64 DAS5 nodes.
func Fig1() string {
	const iters = 2048
	m, net, w := perfmodel.DAS5(), simnet.DKVStore(), perfmodel.PaperFriendster()
	sizes := []int{8, 16, 24, 32, 40, 48, 56, 64}
	pts := perfmodel.StrongScaling(m, net, w, sizes, true)
	sp := perfmodel.Speedup(pts)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — strong scaling, com-Friendster, K=%d, M=%d, |V_n|=%d, %d iterations (model: DAS5)\n",
		w.K, w.M, w.NeighborCount, iters)
	fmt.Fprintf(&b, "%6s %12s %14s %16s %12s %10s\n",
		"nodes", "total (s)", "update_phi_pi", "update_beta (s)", "deploy (s)", "speedup")
	for i, p := range pts {
		e := p.E
		fmt.Fprintf(&b, "%6d %12.1f %14.1f %16.1f %12.1f %10.2f\n",
			p.C, e.Total*iters, (e.UpdatePhi+e.UpdatePi)*iters, e.UpdateBetaTheta*iters,
			(e.DrawMinibatch+e.DeployMinibatch)*iters, sp[i])
	}
	return b.String()
}

// Fig1Validation runs the REAL distributed engine at small rank counts on a
// scaled workload and reports the measured strong-scaling shape, validating
// the model's phase structure on this host.
func Fig1Validation(iters int) (string, error) {
	if iters <= 0 {
		iters = 60
	}
	g, _, err := gen.Planted(gen.DefaultPlanted(4000, 32, 40000, 17))
	if err != nil {
		return "", err
	}
	train, held, err := graph.Split(g, g.NumEdges()/20, mathx.NewRNG(18))
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig(64, 23)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 validation — real engine, N=%d, |E|=%d, K=%d, %d iterations\n",
		train.NumVertices(), train.NumEdges(), cfg.K, iters)
	fmt.Fprintf(&b, "%6s %12s %14s %14s %14s\n", "ranks", "total (s)", "update_phi", "update_beta", "remote frac")
	for _, ranks := range []int{1, 2, 4} {
		res, err := dist.Run(cfg, train, held, dist.Options{
			Ranks: ranks, Threads: 2, Iterations: iters, Pipeline: true,
			MinibatchPairs: 512, NeighborCount: 32,
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%6d %12.3f %14.3f %14.3f %14.2f\n",
			ranks, res.Elapsed.Seconds(),
			res.Phases.Total(engine.PhaseUpdatePhi).Seconds(),
			res.Phases.Total(engine.PhaseUpdateBetaTheta).Seconds(),
			res.RemoteFrac)
	}
	return b.String(), nil
}

// Fig2 models weak scaling: K grows proportionally to the cluster size.
func Fig2() string {
	m, net, w := perfmodel.DAS5(), simnet.DKVStore(), perfmodel.PaperFriendster()
	sizes := []int{4, 8, 16, 32, 48, 64}
	const kPerNode = 192
	pts := perfmodel.WeakScaling(m, net, w, sizes, kPerNode)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — weak scaling, K = %d × nodes (model: DAS5)\n", kPerNode)
	fmt.Fprintf(&b, "%6s %6s %18s\n", "nodes", "K", "time/iteration (ms)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%6d %6d %18.1f\n", p.C, kPerNode*p.C, p.E.Total*1000)
	}
	return b.String()
}

// Fig3 models the pipelining experiment: single vs double buffering on 64
// nodes across community counts, 1024 iterations.
func Fig3() string {
	const iters = 1024
	m, net, w := perfmodel.DAS5(), simnet.DKVStore(), perfmodel.PaperFriendster()
	ks := []int{1024, 2048, 4096, 6144, 8192, 10240, 12288}
	pts := perfmodel.PipelineSweep(m, net, w, 64, ks)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — single vs double buffering, 64 nodes, %d iterations (model: DAS5)\n", iters)
	fmt.Fprintf(&b, "%7s %16s %16s %10s\n", "K", "single (s)", "double (s)", "gap (s)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%7d %16.1f %16.1f %10.1f\n",
			p.K, p.Single*iters, p.Double*iters, (p.Single-p.Double)*iters)
	}
	return b.String()
}

// Fig3Validation runs the real engine with and without double buffering.
func Fig3Validation(iters int) (string, error) {
	if iters <= 0 {
		iters = 40
	}
	g, _, err := gen.Planted(gen.DefaultPlanted(3000, 16, 30000, 29))
	if err != nil {
		return "", err
	}
	train, held, err := graph.Split(g, g.NumEdges()/20, mathx.NewRNG(30))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 validation — real engine, 4 ranks, %d iterations\n", iters)
	fmt.Fprintf(&b, "%7s %16s %16s\n", "K", "single (s)", "double (s)")
	for _, k := range []int{32, 64, 128} {
		cfg := core.DefaultConfig(k, 31)
		opt := dist.Options{Ranks: 4, Threads: 2, Iterations: iters, MinibatchPairs: 256, NeighborCount: 32}
		single, err := dist.Run(cfg, train, held, opt)
		if err != nil {
			return "", err
		}
		opt.Pipeline = true
		double, err := dist.Run(cfg, train, held, opt)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%7d %16.3f %16.3f\n", k, single.Elapsed.Seconds(), double.Elapsed.Seconds())
	}
	return b.String(), nil
}

// TableIII models the per-stage breakdown: com-Friendster on 65 nodes with
// K = 12288, pipelined and not, in ms per iteration.
func TableIII() string {
	w := perfmodel.PaperFriendster()
	w.K = 12288
	m, net := perfmodel.DAS5(), simnet.DKVStore()
	nonPip := perfmodel.Iteration(m, net, w, 64, false)
	pip := perfmodel.Iteration(m, net, w, 64, true)
	paper := map[string][2]float64{
		"total":                  {450, 365},
		"draw/deploy mini-batch": {45.6, 26.2},
		"update_phi":             {285, 241},
		"update_pi":              {3.8, 4.6},
		"update_beta/theta":      {25.9, 33.6},
		"load_pi":                {205, 209},
		"compute_phi":            {74, 74},
	}
	rows := []struct {
		name     string
		non, pip float64
	}{
		{"total", nonPip.Total, pip.Total},
		{"draw/deploy mini-batch", nonPip.DrawMinibatch + nonPip.DeployMinibatch, pip.DrawMinibatch + pip.DeployMinibatch},
		{"update_phi", nonPip.UpdatePhi, pip.UpdatePhi},
		{"update_pi", nonPip.UpdatePi, pip.UpdatePi},
		{"update_beta/theta", nonPip.UpdateBetaTheta, pip.UpdateBetaTheta},
		{"load_pi", nonPip.LoadPi, pip.LoadPi},
		{"compute_phi", nonPip.ComputePhi, pip.ComputePhi},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — stage breakdown, com-Friendster, 65 nodes, K=12288 (ms/iteration)\n")
	fmt.Fprintf(&b, "%-26s %14s %12s %14s %12s\n", "stage", "model nonpip", "paper", "model pip", "paper")
	for _, r := range rows {
		p := paper[r.name]
		fmt.Fprintf(&b, "%-26s %14.1f %12.1f %14.1f %12.1f\n", r.name, r.non*1000, p[0], r.pip*1000, p[1])
	}
	return b.String()
}

// Fig4 models horizontal vs vertical scaling: (a) com-DBLP on a big
// shared-memory node with 16 vs 40 cores against a DAS5 node; (b)
// com-Friendster on 64 DAS5 nodes against the 40-core node.
func Fig4() string {
	var b strings.Builder

	// (a) com-DBLP-sized workload on single machines.
	dblp := perfmodel.Workload{
		Name: "com-dblp", N: 317080, MinibatchPairs: 1024, M: 2048,
		NeighborCount: 32, MeanDegree: 6.6, HeldOut: 10240,
	}
	fmt.Fprintf(&b, "Figure 4a — com-DBLP, single machines (model), time/iteration (ms)\n")
	fmt.Fprintf(&b, "%7s %16s %16s %16s\n", "K", "HPCCloud/40", "HPCCloud/16", "DAS5 node/16")
	for _, k := range []int{1024, 4096, 8192, 16384, 32768} {
		w := dblp
		w.K = k
		t40 := perfmodel.SingleNode(perfmodel.HPCCloud(), w, 40).Total
		t16 := perfmodel.SingleNode(perfmodel.HPCCloud(), w, 16).Total
		das := perfmodel.SingleNode(perfmodel.DAS5(), w, 16).Total
		fmt.Fprintf(&b, "%7d %16.1f %16.1f %16.1f\n", k, t40*1000, t16*1000, das*1000)
	}

	// (b) com-Friendster: 64-node cluster vs the 40-core node.
	fmt.Fprintf(&b, "\nFigure 4b — com-Friendster, 64-node DAS5 vs 40-core HPC Cloud (model), time/iteration (ms)\n")
	fmt.Fprintf(&b, "%7s %16s %16s %8s\n", "K", "distributed", "vertical", "ratio")
	pts := perfmodel.HorizontalVsVertical(perfmodel.DAS5(), perfmodel.HPCCloud(), simnet.DKVStore(),
		perfmodel.PaperFriendster(), 64, 40, []int{1024, 2048, 4096, 8192, 12288})
	for _, p := range pts {
		fmt.Fprintf(&b, "%7d %16.1f %16.1f %8.1f\n", p.K, p.Distributed*1000, p.Vertical*1000, p.Vertical/p.Distributed)
	}
	return b.String()
}

// Fig4Validation compares the real single-node threaded sampler against the
// real distributed engine on this host.
func Fig4Validation(iters int) (string, error) {
	if iters <= 0 {
		iters = 40
	}
	g, _, err := gen.Planted(gen.DefaultPlanted(3000, 16, 30000, 37))
	if err != nil {
		return "", err
	}
	train, held, err := graph.Split(g, g.NumEdges()/20, mathx.NewRNG(38))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 validation — real engines, %d iterations\n", iters)
	fmt.Fprintf(&b, "%7s %20s %20s\n", "K", "single node (s)", "4-rank cluster (s)")
	for _, k := range []int{32, 64} {
		cfg := core.DefaultConfig(k, 39)
		seq, err := core.NewSampler(cfg, train, held, core.SamplerOptions{Threads: 4, MinibatchPairs: 256})
		if err != nil {
			return "", err
		}
		start := time.Now()
		seq.Run(iters)
		seqTime := time.Since(start)
		res, err := dist.Run(cfg, train, held, dist.Options{
			Ranks: 4, Threads: 2, Iterations: iters, Pipeline: true, MinibatchPairs: 256,
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%7d %20.3f %20.3f\n", k, seqTime.Seconds(), res.Elapsed.Seconds())
	}
	return b.String(), nil
}

// Fig5 models the DKV bandwidth against the qperf raw-RDMA baseline.
func Fig5() string {
	pts := perfmodel.BandwidthSweep(simnet.FDRInfiniBand(), simnet.DKVStore(), perfmodel.Fig5Payloads())
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — DKV vs qperf bandwidth by payload size (model: FDR InfiniBand)\n")
	fmt.Fprintf(&b, "%10s %14s %14s %8s\n", "payload", "qperf (GB/s)", "DKV (GB/s)", "ratio")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d %14.2f %14.2f %8.2f\n",
			p.PayloadBytes, p.QperfBps/1e9, p.DKVBps/1e9, p.DKVBps/p.QperfBps)
	}
	return b.String()
}

// Fig6Config controls a convergence run.
type Fig6Config struct {
	Preset string
	// Scale further divides the preset's (already scaled) vertex and edge
	// counts so a single machine reaches convergence in minutes rather than
	// the paper's hours; 0 defaults to 20.
	Scale      int
	K          int // 0 = scaled ground-truth count, clamped to [8, 16]
	Ranks      int
	Threads    int
	Iterations int // 0 = sized for ~1200 φ updates per vertex
	EvalEvery  int
	HeldOutDiv int // held-out size = |E| / HeldOutDiv
	// EventsOut, when non-empty, saves the run's JSONL telemetry stream to
	// this file; Fig6FromEvents rebuilds the convergence table from it later
	// without re-running the engine.
	EventsOut string
}

// Fig6 runs a REAL convergence experiment on one scaled dataset and reports
// perplexity against wall-clock time, plus recovery F1 against the planted
// ground truth. Convergence needs many updates per vertex (the paper trains
// for hours on 65 nodes), so the workload is scaled until that is reachable
// on one machine.
func Fig6(c Fig6Config) (string, error) {
	p, err := gen.PresetByName(c.Preset)
	if err != nil {
		return "", err
	}
	if c.Scale == 0 {
		c.Scale = 20
	}
	if c.Ranks == 0 {
		c.Ranks = 2
	}
	if c.HeldOutDiv == 0 {
		c.HeldOutDiv = 20
	}
	n := p.N / c.Scale
	edges := p.Edges / c.Scale
	// Size the planted blocks for a target intra-block density of ~0.2, so
	// the scaled dataset keeps DETECTABLE communities and a β the balanced
	// held-out metric rewards: block size s ≈ degree/0.2, community count
	// N·1.3/s, clamped to [8, 32]. (Scaling the paper's ground-truth count
	// directly would give blocks too thin to detect at 1/20 scale.)
	deg := 2 * float64(edges) / float64(n)
	blockSize := deg / 0.2
	if blockSize < 16 {
		blockSize = 16
	}
	communities := int(float64(n) * 1.3 / blockSize)
	if communities < 8 {
		communities = 8
	}
	if communities > 32 {
		communities = 32
	}
	k := c.K
	if k == 0 {
		k = communities
	}
	// A minibatch of n/2 pairs touches nearly every vertex each iteration,
	// the fastest-mixing setting per wall-clock unit on one machine.
	mb := n / 2
	if mb < 128 {
		mb = 128
	}
	if mb > 2048 {
		mb = 2048
	}
	if c.Iterations == 0 {
		// ≈3500 φ updates per vertex. SG-MCMC mixes slowly (the paper's
		// convergence runs take hours on 65 nodes); this is the budget at
		// which planted structure reliably emerges at these scales.
		c.Iterations = 3500 * n / (2 * mb)
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = c.Iterations / 12
		if c.EvalEvery == 0 {
			c.EvalEvery = 1
		}
	}

	g, gt, err := gen.Planted(gen.PlantedConfig{
		N: n, NumCommunities: communities, MeanMembership: 1.3,
		SizeSkew: 0.6, TargetEdges: edges, Background: 0.05, Seed: p.Seed,
	})
	if err != nil {
		return "", err
	}
	train, held, err := graph.Split(g, g.NumEdges()/c.HeldOutDiv, mathx.NewRNG(p.Seed+100))
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig(k, p.Seed+200)
	cfg.Alpha = 1 / float64(k)
	// A larger, slower-decaying step mixes much faster at these scales
	// while still satisfying the SGLD schedule conditions.
	cfg.StepA = 0.05
	cfg.StepB = 4096
	// The convergence table is built from the run's own telemetry stream, not
	// from Result — the same JSONL a long run writes with -metrics-out, so the
	// live and post-hoc paths (Fig6FromEvents) render identical figures.
	var evbuf bytes.Buffer
	sink := obs.NewSink(&evbuf)
	res, err := dist.Run(cfg, train, held, dist.Options{
		Ranks: c.Ranks, Threads: c.Threads, Iterations: c.Iterations,
		EvalEvery: c.EvalEvery, Pipeline: true,
		MinibatchPairs: mb, NeighborCount: 32,
		Events: sink,
	})
	if err != nil {
		return "", err
	}
	if err := sink.Close(); err != nil {
		return "", err
	}
	if c.EventsOut != "" {
		if err := os.WriteFile(c.EventsOut, evbuf.Bytes(), 0o644); err != nil {
			return "", err
		}
	}
	events, err := obs.ReadEvents(bytes.NewReader(evbuf.Bytes()))
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — convergence, %s /%d (N=%d, |E|=%d, K=%d, %d ranks, %d iterations)\n",
		p.Name, c.Scale, train.NumVertices(), train.NumEdges(), k, c.Ranks, c.Iterations)
	writeConvergenceTable(&b, events)
	truth := metrics.NewCover(g.NumVertices(), gt.Members)
	detected := metrics.FromState(res.State, 0)
	fmt.Fprintf(&b, "recovery F1 vs planted ground truth: %.3f (NMI %.3f)\n",
		metrics.F1Score(detected, truth), metrics.NMI(detected, truth))
	return b.String(), nil
}

// writeConvergenceTable renders the Figure 6 perplexity-vs-wall-clock table
// from a telemetry event stream's perplexity events.
func writeConvergenceTable(b *strings.Builder, events []obs.Event) {
	fmt.Fprintf(b, "%10s %12s %14s\n", "iteration", "elapsed (s)", "perplexity")
	detector := metrics.NewConvergenceDetector(6, 0.005)
	convergedAt := -1
	for i := range events {
		e := &events[i]
		if e.Type != obs.EventPerplexity {
			continue
		}
		fmt.Fprintf(b, "%10d %12.2f %14.4f\n", e.Iter, e.ElapsedMS/1000, e.Perplexity)
		if detector.Add(e.Perplexity) && convergedAt < 0 {
			convergedAt = e.Iter
		}
	}
	if convergedAt >= 0 {
		fmt.Fprintf(b, "converged (smoothed) at iteration %d\n", convergedAt)
	}
}

// Fig6FromEvents rebuilds the Figure 6 convergence table from a saved JSONL
// telemetry stream (a run's -metrics-out file, or Fig6Config.EventsOut)
// without re-running the engine. A torn final line — the run is still going,
// or crashed mid-write — degrades to digesting the complete events. The
// recovery-F1 line needs the trained state and so only appears on live runs.
func Fig6FromEvents(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		var torn *obs.TornTailError
		if !errors.As(err, &torn) {
			return "", err
		}
		fmt.Fprintf(os.Stderr, "ocd-paper: warning: %v (using the %d complete events)\n", torn, len(events))
	}
	ranks, iters := 0, 0
	for i := range events {
		if events[i].Type == obs.EventRunStart {
			ranks, iters = events[i].Ranks, events[i].Iterations
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — convergence, replayed from %s (%d ranks, %d iterations)\n", path, ranks, iters)
	writeConvergenceTable(&b, events)
	return b.String(), nil
}
