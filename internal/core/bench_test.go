package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/sampling"
	"repro/internal/store"
)

// benchState builds a deterministic state and neighbor fixture for the
// kernel benchmarks.
func benchState(b testing.TB, k, neighbors int) (Config, *State, [][]float32, []bool, []float64, *mathx.RNG) {
	b.Helper()
	cfg := DefaultConfig(k, 7)
	s, err := NewState(cfg, neighbors+4)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]float32, neighbors)
	linked := make([]bool, neighbors)
	weight := make([]float64, neighbors)
	for i := range rows {
		rows[i] = s.PiRow(i + 1)
		linked[i] = i%8 == 0
		weight[i] = 12.5
	}
	return cfg, s, rows, linked, weight, mathx.NewRNG(9)
}

// updatePhiKs are the K cells the kernel benchmark and its allocation gate
// both cover.
var updatePhiKs = []int{16, 64, 256, 1024}

// BenchmarkUpdatePhi measures the inner kernel of the dominant stage; the
// paper's Table III attributes 74 ms/iteration to this computation.
func BenchmarkUpdatePhi(b *testing.B) {
	for _, k := range updatePhiKs {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			cfg, s, rows, linked, weight, rng := benchState(b, k, 32)
			sc := NewPhiScratch(k)
			newPhi := make([]float64, k)
			// Warm-up so one-time growth is off the measured path.
			UpdatePhi(&cfg, 0.001, s.PiRow(0), s.PhiSum[0], rows, linked, weight, s.Beta, rng, newPhi, sc)
			b.SetBytes(int64(33 * k * 4)) // π rows touched
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				UpdatePhi(&cfg, 0.001, s.PiRow(0), s.PhiSum[0], rows, linked, weight, s.Beta, rng, newPhi, sc)
			}
		})
	}
}

// TestUpdatePhiAllocsZero is the kernel alloc ceiling: with pooled scratch the
// fused update_phi kernel must not touch the heap, at any K the benchmark
// covers. (It replaces an awk gate over BenchmarkUpdatePhi's -benchmem column
// in ci.yml, so it now runs under go test ./... too.)
func TestUpdatePhiAllocsZero(t *testing.T) {
	for _, k := range updatePhiKs {
		cfg, s, rows, linked, weight, rng := benchState(t, k, 32)
		sc := NewPhiScratch(k)
		newPhi := make([]float64, k)
		kernel := func() {
			UpdatePhi(&cfg, 0.001, s.PiRow(0), s.PhiSum[0], rows, linked, weight, s.Beta, rng, newPhi, sc)
		}
		kernel() // warm-up: one-time scratch growth is not steady state
		if allocs := testing.AllocsPerRun(100, kernel); allocs != 0 {
			t.Errorf("K=%d: UpdatePhi allocates %v allocs/op (ceiling 0)", k, allocs)
		}
	}
}

// BenchmarkPhiStage drives the whole update_phi stage — neighbor sampling,
// π staging through a LocalStore, the fused kernel — over one minibatch per
// op. With the persistent chunk buffers and per-worker scratch pool the
// steady state performs only a constant handful of tiny allocations per
// minibatch (closure headers), none proportional to vertices or K.
func BenchmarkPhiStage(b *testing.B) {
	g, _, err := gen.Planted(gen.DefaultPlanted(2000, 16, 20000, 3))
	if err != nil {
		b.Fatal(err)
	}
	const k = 64
	cfg := DefaultConfig(k, 5)
	s, err := NewState(cfg, g.NumVertices())
	if err != nil {
		b.Fatal(err)
	}
	neigh, err := sampling.NewLinkPlusUniform(sampling.NewGraphView(g, nil), 32)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]int32, 256)
	for i := range nodes {
		nodes[i] = int32(i * 7 % g.NumVertices())
	}
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			stage := &PhiStage{
				Cfg:     &cfg,
				Store:   store.NewLocal(s.Pi, s.PhiSum, k, threads),
				Neigh:   neigh,
				Threads: threads,
			}
			newPhi := make([]float64, len(nodes)*k)
			run := func(t int) {
				if err := stage.Run(t, 0.001, nodes, s.Beta, newPhi); err != nil {
					b.Fatal(err)
				}
			}
			run(0) // warm-up: size the persistent buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i + 1)
			}
		})
	}
}

// BenchmarkThetaGradient measures the per-pair global-update kernel.
func BenchmarkThetaGradient(b *testing.B) {
	for _, k := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			cfg, s, _, _, _, _ := benchState(b, k, 2)
			grad := make([]float64, 2*k)
			sc := NewThetaScratch(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AccumulateThetaGrad(s.PiRow(0), s.PiRow(1), s.Theta, s.Beta, cfg.Delta, i%2 == 0, grad, sc)
			}
		})
	}
}

// BenchmarkEdgeProbability measures the perplexity kernel.
func BenchmarkEdgeProbability(b *testing.B) {
	for _, k := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			cfg, s, _, _, _, _ := benchState(b, k, 2)
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += EdgeProbability(s.PiRow(0), s.PiRow(1), s.Beta, cfg.Delta, i%2 == 0)
			}
			_ = sink
		})
	}
}

// BenchmarkSamplerStep measures a full Algorithm 1 iteration end to end on a
// mid-sized graph.
func BenchmarkSamplerStep(b *testing.B) {
	g, _, err := gen.Planted(gen.DefaultPlanted(2000, 16, 20000, 3))
	if err != nil {
		b.Fatal(err)
	}
	train, held, err := graph.Split(g, g.NumEdges()/20, mathx.NewRNG(4))
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSampler(DefaultConfig(32, 5), train, held, SamplerOptions{
		Threads: 0, MinibatchPairs: 256, NeighborCount: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Run(b.N)
}

// BenchmarkPerplexity measures the held-out evaluation (the paper's
// |E_h| × K stage).
func BenchmarkPerplexity(b *testing.B) {
	g, _, err := gen.Planted(gen.DefaultPlanted(2000, 16, 20000, 3))
	if err != nil {
		b.Fatal(err)
	}
	_, held, err := graph.Split(g, g.NumEdges()/10, mathx.NewRNG(4))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(64, 5)
	s, err := NewState(cfg, g.NumVertices())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Perplexity(s, held, cfg.Delta, 0)
	}
}

// BenchmarkStateCheckpoint measures serialisation throughput.
func BenchmarkStateCheckpoint(b *testing.B) {
	cfg := DefaultConfig(128, 5)
	s, err := NewState(cfg, 4096)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4096*128*4 + 4096*8 + 256*8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := saveState(s, discard{}, i); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
