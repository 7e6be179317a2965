package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mathx"
)

// AMMSBConfig parameterises the exact a-MMSB generative sampler (Section
// II-A of the paper). The sampler is quadratic in N and exists so that tests
// can check the inference code against data that truly follows the model.
type AMMSBConfig struct {
	N     int     // vertices
	K     int     // communities
	Alpha float64 // Dirichlet concentration for memberships π_a
	Eta0  float64 // Beta prior parameter (failure pseudo-count)
	Eta1  float64 // Beta prior parameter (success pseudo-count)
	Delta float64 // cross-community link probability
	Seed  uint64
}

// AMMSBSample holds the generated graph together with the latent variables
// that produced it, so tests can compare inferred parameters to the truth.
type AMMSBSample struct {
	Graph *graph.Graph
	Pi    [][]float64 // N × K ground-truth memberships
	Beta  []float64   // K community strengths
}

// AMMSB draws one graph from the a-MMSB generative process:
//
//  1. β_k ~ Beta(η1, η0) per community;
//  2. π_a ~ Dirichlet(α) per vertex;
//  3. for every pair (a,b): z_ab ~ π_a, z_ba ~ π_b,
//     y_ab ~ Bernoulli(β_k) if z_ab = z_ba = k else Bernoulli(δ).
func AMMSB(cfg AMMSBConfig) (*AMMSBSample, error) {
	switch {
	case cfg.N < 2:
		return nil, fmt.Errorf("gen: AMMSB N = %d, need at least 2", cfg.N)
	case cfg.K < 1:
		return nil, fmt.Errorf("gen: AMMSB K = %d, need at least 1", cfg.K)
	case cfg.Alpha <= 0 || cfg.Eta0 <= 0 || cfg.Eta1 <= 0:
		return nil, fmt.Errorf("gen: AMMSB hyperparameters must be positive")
	case cfg.Delta < 0 || cfg.Delta > 1:
		return nil, fmt.Errorf("gen: AMMSB delta = %v out of [0,1]", cfg.Delta)
	}
	rng := mathx.NewRNG(cfg.Seed)

	beta := make([]float64, cfg.K)
	for k := range beta {
		beta[k] = rng.Beta(cfg.Eta1, cfg.Eta0)
	}
	pi := make([][]float64, cfg.N)
	for a := range pi {
		pi[a] = make([]float64, cfg.K)
		rng.Dirichlet(cfg.Alpha, pi[a])
	}

	b := graph.NewBuilder(cfg.N)
	for a := 0; a < cfg.N; a++ {
		for bb := a + 1; bb < cfg.N; bb++ {
			zab := rng.Categorical(pi[a])
			zba := rng.Categorical(pi[bb])
			p := cfg.Delta
			if zab == zba {
				p = beta[zab]
			}
			if rng.Float64() < p {
				b.AddEdge(a, bb)
			}
		}
	}
	return &AMMSBSample{Graph: b.Finalize(), Pi: pi, Beta: beta}, nil
}
