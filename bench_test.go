// Benchmarks that regenerate the paper's tables and figures — one benchmark
// per experiment. Model-scale series (the paper's 65-node numbers) are
// emitted as custom metrics; real-engine benchmarks measure this machine.
//
//	go test -bench=. -benchmem
//
// Naming: BenchmarkTableII*, BenchmarkFig1* ... match the experiment index
// in DESIGN.md §4.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// benchGraph caches a planted graph across benchmarks within one process.
var benchGraphs = map[string]struct {
	train *graph.Graph
	held  *graph.HeldOut
}{}

func benchFixture(b *testing.B, name string, n, k, edges int, seed uint64) (*graph.Graph, *graph.HeldOut) {
	b.Helper()
	if got, ok := benchGraphs[name]; ok {
		return got.train, got.held
	}
	g, _, err := gen.Planted(gen.DefaultPlanted(n, k, edges, seed))
	if err != nil {
		b.Fatal(err)
	}
	train, held, err := graph.Split(g, g.NumEdges()/20, mathx.NewRNG(seed+1))
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[name] = struct {
		train *graph.Graph
		held  *graph.HeldOut
	}{train, held}
	return train, held
}

// BenchmarkTableIIDatasets measures synthetic dataset generation — the
// stand-in for Table II's SNAP downloads. Reported rate is edges generated
// per second at com-youtube-sim scale parameters (reduced N for bench time).
func BenchmarkTableIIDatasets(b *testing.B) {
	cfg := gen.DefaultPlanted(11348, 83, 29876, 1) // com-youtube-sim / 1
	for i := 0; i < b.N; i++ {
		g, _, err := gen.Planted(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(g.NumEdges()))
	}
}

// BenchmarkFig1StrongScaling runs the REAL distributed engine across
// simulated cluster sizes on a fixed problem (the strong-scaling axis of
// Figure 1). ns/op is the per-iteration cost at each rank count; the modeled
// 65-node series is reported by BenchmarkFig1Model.
func BenchmarkFig1StrongScaling(b *testing.B) {
	train, held := benchFixture(b, "fig1", 4000, 32, 40000, 17)
	cfg := core.DefaultConfig(64, 23)
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			res, err := dist.Run(cfg, train, held, dist.Options{
				Ranks: ranks, Threads: 2, Iterations: max(b.N, 4), Pipeline: true,
				MinibatchPairs: 512, NeighborCount: 32,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Elapsed.Milliseconds())/float64(max(b.N, 4)), "ms/iter")
			b.ReportMetric(res.RemoteFrac, "remote-frac")
		})
	}
}

// BenchmarkFig1Model emits the paper-scale strong-scaling series (DAS5
// model, C=8..64) as metrics: modeled seconds for 2048 iterations.
func BenchmarkFig1Model(b *testing.B) {
	m, net, w := perfmodel.DAS5(), simnet.DKVStore(), perfmodel.PaperFriendster()
	var pts []perfmodel.ScalePoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.StrongScaling(m, net, w, []int{8, 16, 32, 64}, true)
	}
	for _, p := range pts {
		b.ReportMetric(p.E.Total*2048, fmt.Sprintf("s-total-C%d", p.C))
	}
}

// BenchmarkFig2WeakScaling grows K with the rank count so per-rank work
// stays constant; ms/iter should stay roughly flat (Figure 2).
func BenchmarkFig2WeakScaling(b *testing.B) {
	train, held := benchFixture(b, "fig2", 4000, 32, 40000, 19)
	for _, ranks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranks=%d_K=%d", ranks, 32*ranks), func(b *testing.B) {
			cfg := core.DefaultConfig(32*ranks, 29)
			res, err := dist.Run(cfg, train, held, dist.Options{
				Ranks: ranks, Threads: 2, Iterations: max(b.N, 4), Pipeline: true,
				MinibatchPairs: 512, NeighborCount: 32,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Elapsed.Milliseconds())/float64(max(b.N, 4)), "ms/iter")
		})
	}
}

// BenchmarkFig3Pipelining measures the double-buffering ablation (Figure 3)
// on the real engine: identical runs with the pipeline off and on.
func BenchmarkFig3Pipelining(b *testing.B) {
	train, held := benchFixture(b, "fig3", 3000, 16, 30000, 31)
	cfg := core.DefaultConfig(128, 37)
	for _, pipelined := range []bool{false, true} {
		name := "single-buffer"
		if pipelined {
			name = "double-buffer"
		}
		b.Run(name, func(b *testing.B) {
			res, err := dist.Run(cfg, train, held, dist.Options{
				Ranks: 4, Threads: 2, Iterations: max(b.N, 4), Pipeline: pipelined,
				MinibatchPairs: 512, NeighborCount: 32,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Elapsed.Milliseconds())/float64(max(b.N, 4)), "ms/iter")
		})
	}
}

// BenchmarkTableIIIBreakdown reports the per-stage ms/iteration of a real
// pipelined run — the same rows as Table III, measured on this machine.
func BenchmarkTableIIIBreakdown(b *testing.B) {
	train, held := benchFixture(b, "tableIII", 3000, 16, 30000, 41)
	cfg := core.DefaultConfig(96, 43)
	iters := max(b.N, 8)
	res, err := dist.Run(cfg, train, held, dist.Options{
		Ranks: 4, Threads: 2, Iterations: iters, Pipeline: true,
		MinibatchPairs: 512, NeighborCount: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, phase := range []string{
		engine.PhaseDeployMinibatch, engine.PhaseUpdatePhi, engine.PhaseSampleNeighbors,
		engine.PhaseLoadPi, engine.PhaseComputePhi, engine.PhaseUpdatePi,
		engine.PhaseUpdateBetaTheta,
	} {
		ms := float64(res.Phases.Total(phase).Microseconds()) / 1000 / float64(iters)
		b.ReportMetric(ms, "ms/iter-"+phase)
	}
}

// BenchmarkFig4HorizVert compares the single-node threaded sampler
// ("vertical") against the distributed engine ("horizontal") on the same
// problem — the real-machine analogue of Figure 4.
func BenchmarkFig4HorizVert(b *testing.B) {
	train, held := benchFixture(b, "fig4", 3000, 16, 30000, 47)
	cfg := core.DefaultConfig(64, 53)
	b.Run("vertical-threaded", func(b *testing.B) {
		s, err := core.NewSampler(cfg, train, held, core.SamplerOptions{
			Threads: 0, MinibatchPairs: 512, NeighborCount: 32,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		s.Run(b.N)
	})
	b.Run("horizontal-4ranks", func(b *testing.B) {
		res, err := dist.Run(cfg, train, held, dist.Options{
			Ranks: 4, Threads: 2, Iterations: max(b.N, 4), Pipeline: true,
			MinibatchPairs: 512, NeighborCount: 32,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Elapsed.Milliseconds())/float64(max(b.N, 4)), "ms/iter")
	})
}

// BenchmarkFig5Model emits the modeled Figure 5 curves as metrics (GB/s).
func BenchmarkFig5Model(b *testing.B) {
	var pts []perfmodel.BandwidthPoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.BandwidthSweep(simnet.FDRInfiniBand(), simnet.DKVStore(), perfmodel.Fig5Payloads())
	}
	for _, p := range pts {
		if p.PayloadBytes == 1024 || p.PayloadBytes == 64<<10 || p.PayloadBytes == 1<<20 {
			b.ReportMetric(p.DKVBps/1e9, fmt.Sprintf("GBps-dkv-%dB", p.PayloadBytes))
			b.ReportMetric(p.QperfBps/1e9, fmt.Sprintf("GBps-qperf-%dB", p.PayloadBytes))
		}
	}
}

// BenchmarkFig6Convergence measures end-to-end training iterations with
// periodic perplexity evaluation — the unit of work behind every Figure 6
// curve.
func BenchmarkFig6Convergence(b *testing.B) {
	train, held := benchFixture(b, "fig6", 3000, 16, 30000, 59)
	cfg := core.DefaultConfig(32, 61)
	cfg.Alpha = 1.0 / 32
	res, err := dist.Run(cfg, train, held, dist.Options{
		Ranks: 4, Threads: 2, Iterations: max(b.N, 8), Pipeline: true,
		EvalEvery: 8, MinibatchPairs: 512, NeighborCount: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Perplexity) > 0 {
		b.ReportMetric(res.Perplexity[len(res.Perplexity)-1].Value, "final-perplexity")
	}
}

// --- ablation benches for DESIGN.md §6 design choices ---

// BenchmarkAblationNeighborStrategy compares the paper's uniform neighbor
// sampling (Eqn 5) against the lower-variance link+uniform strategy.
func BenchmarkAblationNeighborStrategy(b *testing.B) {
	train, held := benchFixture(b, "ablation-neigh", 3000, 16, 30000, 67)
	cfg := core.DefaultConfig(32, 71)
	for _, uniform := range []bool{true, false} {
		name := "link-plus-uniform"
		if uniform {
			name = "uniform"
		}
		b.Run(name, func(b *testing.B) {
			s, err := core.NewSampler(cfg, train, held, core.SamplerOptions{
				Threads: 0, MinibatchPairs: 512, NeighborCount: 32, UniformNeighbors: uniform,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			s.Run(b.N)
		})
	}
}

// BenchmarkAblationMinibatchStrategy compares random-pair against stratified
// random node minibatches.
func BenchmarkAblationMinibatchStrategy(b *testing.B) {
	train, held := benchFixture(b, "ablation-mb", 3000, 16, 30000, 73)
	cfg := core.DefaultConfig(32, 79)
	for _, strat := range []bool{false, true} {
		name := "random-pair"
		if strat {
			name = "stratified-node"
		}
		b.Run(name, func(b *testing.B) {
			s, err := core.NewSampler(cfg, train, held, core.SamplerOptions{
				Threads: 0, MinibatchPairs: 512, NeighborCount: 32, Stratified: strat,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			s.Run(b.N)
		})
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
