// Package svi implements the stochastic variational inference baseline for
// the a-MMSB — the "SVB" method class the paper contrasts with SG-MCMC in
// its introduction (Gopalan et al., "Scalable inference of overlapping
// communities", NIPS 2012). Li, Ahn & Welling showed SG-MCMC converges
// faster and to better held-out likelihood; having both inference engines in
// one repository lets the comparison benchmark reproduce that claim.
//
// Variational family:
//
//	q(π_a) = Dirichlet(γ_a)       (γ: N×K)
//	q(β_k) = Beta(λ_k1, λ_k0)     (λ: K×2)
//	q(z_ab, z_ba) = joint categorical responsibilities, computed in closed
//	                form per processed pair (never stored)
//
// One iteration (node-wise local steps, as in svinet): sample a minibatch of
// vertices; for each vertex take a natural-gradient coordinate step on γ_a
// using its full link set plus a weighted non-link sample (the same
// link+uniform neighbor scheme the MCMC engine uses); fold the pairs'
// diagonal responsibilities into a globally-scaled λ step. Step size
// ρ_t = (τ + t)^(−κ).
package svi

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/par"
	"repro/internal/sampling"
)

// Config carries the model hyperparameters and the SVI step schedule.
type Config struct {
	K     int
	Alpha float64 // Dirichlet prior concentration
	Eta0  float64 // Beta prior pseudo-count for "no link"
	Eta1  float64 // Beta prior pseudo-count for "link"
	Delta float64 // cross-community link probability

	// Step size ρ_t = (Tau + t)^(−Kappa); Kappa ∈ (0.5, 1] for convergence.
	Tau   float64
	Kappa float64

	Seed uint64
}

// DefaultConfig mirrors the conventional svinet settings.
func DefaultConfig(k int, seed uint64) Config {
	return Config{
		K:     k,
		Alpha: 1 / float64(k),
		Eta0:  1,
		Eta1:  1,
		Delta: 1e-7,
		Tau:   64,
		Kappa: 0.6,
		Seed:  seed,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("svi: K = %d", c.K)
	case c.Alpha <= 0 || c.Eta0 <= 0 || c.Eta1 <= 0:
		return fmt.Errorf("svi: non-positive prior")
	case c.Delta <= 0 || c.Delta >= 1:
		return fmt.Errorf("svi: Delta = %v out of (0,1)", c.Delta)
	case c.Tau <= 0:
		return fmt.Errorf("svi: Tau = %v", c.Tau)
	case c.Kappa <= 0.5 || c.Kappa > 1:
		return fmt.Errorf("svi: Kappa = %v, need in (0.5, 1]", c.Kappa)
	}
	return nil
}

// StepSize returns ρ_t.
func (c Config) StepSize(t int) float64 {
	return math.Pow(c.Tau+float64(t), -c.Kappa)
}

// pairStats are one (a, b) pair's variational quantities: the marginal
// responsibilities q(z_ab = k) and q(z_ba = k), and the diagonal joint
// q(z_ab = z_ba = k).
type pairStats struct {
	margA []float64
	margB []float64
	diag  []float64
}

// pairResponsibilities computes the closed-form responsibilities for a pair
// with expected log memberships ea, eb (E[log π]) and community-vs-noise
// weight ratios v[k] = exp(E[log p(y | z=z'=k)] − log p(y | z≠z')). The
// output slices must be length K.
func pairResponsibilities(ea, eb, v []float64, out *pairStats) {
	k := len(ea)
	shiftA, shiftB := slices.Max(ea), slices.Max(eb)
	var sumA, sumB float64
	for i := 0; i < k; i++ {
		out.margA[i] = math.Exp(ea[i] - shiftA) // reuse as u_a
		out.margB[i] = math.Exp(eb[i] - shiftB) // reuse as u_b
		sumA += out.margA[i]
		sumB += out.margB[i]
	}
	var diagPlain, diagV float64
	for i := 0; i < k; i++ {
		p := out.margA[i] * out.margB[i]
		diagPlain += p
		diagV += p * v[i]
	}
	z := sumA*sumB - diagPlain + diagV
	if z <= 0 {
		for i := 0; i < k; i++ {
			out.margA[i], out.margB[i], out.diag[i] = 0, 0, 0
		}
		return
	}
	invZ := 1 / z
	for i := 0; i < k; i++ {
		ua, ub := out.margA[i], out.margB[i]
		d := ua * ub * v[i] * invZ
		out.diag[i] = d
		out.margA[i] = ua*(sumB-ub)*invZ + d
		out.margB[i] = ub*(sumA-ua)*invZ + d
	}
}

// Sampler holds the variational state and runs the optimisation.
type Sampler struct {
	Cfg   Config
	Graph *graph.Graph
	Held  *graph.HeldOut
	// Gamma is the row-major N×K Dirichlet parameter matrix.
	Gamma []float64
	// Lambda is the row-major K×2 Beta parameter matrix; index 1 is the
	// "link" pseudo-count (matching core.State.Theta's convention).
	Lambda []float64

	Threads   int
	nodeBatch int
	neigh     sampling.NeighborStrategy
	t         int

	vLink []float64 // v_k for y = 1, refreshed each iteration
	vNon  []float64 // v_k for y = 0
}

// Options configures NewSampler.
type Options struct {
	// NodeBatch is the number of vertices updated per iteration (default 64).
	NodeBatch int
	// NonLinkCount is the non-link subsample size per vertex (default 32).
	NonLinkCount int
	Threads      int
}

// NewSampler initialises γ from the prior plus uniform noise and λ from the
// prior, reusing the link+uniform neighbor scheme of the sampling package
// (held-out pairs excluded, as in the MCMC engine).
func NewSampler(cfg Config, g *graph.Graph, held *graph.HeldOut, opt Options) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.NodeBatch == 0 {
		opt.NodeBatch = 64
	}
	if opt.NonLinkCount == 0 {
		opt.NonLinkCount = 32
	}
	if opt.NodeBatch > g.NumVertices() {
		opt.NodeBatch = g.NumVertices()
	}
	var excluded *graph.EdgeSet
	if held != nil {
		set := graph.NewEdgeSet(held.Len())
		for _, e := range held.Pairs {
			set.Add(e)
		}
		excluded = &set
	}
	neigh, err := sampling.NewLinkPlusUniform(sampling.NewGraphView(g, excluded), opt.NonLinkCount)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	s := &Sampler{
		Cfg:       cfg,
		Graph:     g,
		Held:      held,
		Gamma:     make([]float64, n*cfg.K),
		Lambda:    make([]float64, 2*cfg.K),
		Threads:   opt.Threads,
		nodeBatch: opt.NodeBatch,
		neigh:     neigh,
		vLink:     make([]float64, cfg.K),
		vNon:      make([]float64, cfg.K),
	}
	// Symmetry breaking: variational coordinate ascent stalls in the saddle
	// where every community explains every vertex equally, so γ starts from
	// a quick label-propagation sketch of the graph (svinet ships comparable
	// neighborhood-based initialisation heuristics).
	rng := mathx.NewStream(cfg.Seed, 0)
	label := labelPropagation(g, cfg.K, rng)
	for a := 0; a < n; a++ {
		row := s.Gamma[a*cfg.K : (a+1)*cfg.K]
		for kk := range row {
			row[kk] = cfg.Alpha + 0.5*rng.Float64()
			if kk == label[a] {
				row[kk] += float64(cfg.K)
			}
		}
	}
	for k := 0; k < cfg.K; k++ {
		s.Lambda[k*2] = cfg.Eta0 + rng.Float64()
		s.Lambda[k*2+1] = cfg.Eta1 + rng.Float64()
	}
	return s, nil
}

// labelPropagation runs a few rounds of majority-vote label propagation from
// a uniform random K-labelling; ties and isolated vertices keep their labels.
func labelPropagation(g *graph.Graph, k int, rng *mathx.RNG) []int {
	n := g.NumVertices()
	label := make([]int, n)
	for a := range label {
		label[a] = rng.Intn(k)
	}
	counts := make([]int, k)
	for round := 0; round < 5; round++ {
		for a := 0; a < n; a++ {
			for i := range counts {
				counts[i] = 0
			}
			for _, b := range g.Neighbors(a) {
				counts[label[b]]++
			}
			best, bestC := label[a], 0
			for kk, c := range counts {
				if c > bestC {
					best, bestC = kk, c
				}
			}
			label[a] = best
		}
	}
	return label
}

// Iteration returns the number of completed iterations.
func (s *Sampler) Iteration() int { return s.t }

// GammaRow returns γ_a.
func (s *Sampler) GammaRow(a int) []float64 {
	return s.Gamma[a*s.Cfg.K : (a+1)*s.Cfg.K]
}

// lambdaChunk fixes the fold order of the λ statistics so results do not
// depend on the thread count.
const lambdaChunk = 8

// Step performs one stochastic natural-gradient update over a node
// minibatch.
func (s *Sampler) Step() {
	k := s.Cfg.K
	n := s.Graph.NumVertices()
	rho := s.Cfg.StepSize(s.t)

	// Refresh E[log β]-derived weights relative to the δ bucket.
	logDelta := math.Log(s.Cfg.Delta)
	log1mDelta := math.Log1p(-s.Cfg.Delta)
	for kk := 0; kk < k; kk++ {
		elog, elog1m := mathx.BetaExpLogs(s.Lambda[kk*2+1], s.Lambda[kk*2])
		s.vLink[kk] = math.Exp(elog - logDelta)
		s.vNon[kk] = math.Exp(elog1m - log1mDelta)
	}

	// Draw the node minibatch (distinct vertices).
	sel := mathx.NewStream(s.Cfg.Seed, uint64(s.t)*2+1)
	nodes := make([]int32, 0, s.nodeBatch)
	seen := map[int32]struct{}{}
	for len(nodes) < s.nodeBatch {
		a := int32(sel.Intn(n))
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		nodes = append(nodes, a)
	}

	// Local steps: compute each node's γ* target from pre-update γ, plus
	// per-chunk λ partials; commit after the whole batch is computed.
	newGamma := make([]float64, len(nodes)*k)
	lambdaStat := par.ChunkedReduceVec(len(nodes), lambdaChunk, s.Threads, 2*k,
		func(lo, hi int, acc []float64) {
			ps := &pairStats{
				margA: make([]float64, k),
				margB: make([]float64, k),
				diag:  make([]float64, k),
			}
			ea := make([]float64, k)
			eb := make([]float64, k)
			var ns sampling.NeighborSample
			for i := lo; i < hi; i++ {
				a := nodes[i]
				rng := mathx.NewStream(s.Cfg.Seed, uint64(s.t)<<32|uint64(a)|1<<63)
				s.neigh.Sample(a, rng, &ns)
				mathx.DirichletExpLog(s.GammaRow(int(a)), ea)
				target := newGamma[i*k : (i+1)*k]
				for kk := range target {
					target[kk] = s.Cfg.Alpha
				}
				for j, b := range ns.Nodes {
					mathx.DirichletExpLog(s.GammaRow(int(b)), eb)
					v := s.vNon
					if ns.Linked[j] {
						v = s.vLink
					}
					pairResponsibilities(ea, eb, v, ps)
					w := ns.Scale[j]
					for kk := 0; kk < k; kk++ {
						target[kk] += w * ps.margA[kk]
						// λ statistic: each unordered pair is seen from
						// both endpoints across the run, hence the /2 in
						// the global scaling below.
						if ns.Linked[j] {
							acc[kk*2+1] += w * ps.diag[kk]
						} else {
							acc[kk*2] += w * ps.diag[kk]
						}
					}
				}
			}
		})

	// Commit γ for the minibatch nodes.
	par.ForEach(len(nodes), s.Threads, func(i int) {
		row := s.GammaRow(int(nodes[i]))
		target := newGamma[i*k : (i+1)*k]
		for kk := 0; kk < k; kk++ {
			row[kk] = (1-rho)*row[kk] + rho*target[kk]
		}
	})

	// Global λ step: the node-sum estimates Σ_a Σ_b w·diag ≈ (m/N)·2·Σ_pairs,
	// so the unbiased full-data statistic is (N / 2m) times the batch sum.
	scale := float64(n) / (2 * float64(len(nodes)))
	for kk := 0; kk < k; kk++ {
		t0 := s.Cfg.Eta0 + scale*lambdaStat[kk*2]
		t1 := s.Cfg.Eta1 + scale*lambdaStat[kk*2+1]
		s.Lambda[kk*2] = (1-rho)*s.Lambda[kk*2] + rho*t0
		s.Lambda[kk*2+1] = (1-rho)*s.Lambda[kk*2+1] + rho*t1
	}
	s.t++
}

// Run executes n iterations.
func (s *Sampler) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// PosteriorMeanState converts the variational posterior means into a
// core.State (π̂_ak = γ_ak/Σγ, β̂_k = λ_k1/(λ_k0+λ_k1)) so the shared
// perplexity and recovery metrics apply to both inference engines.
func (s *Sampler) PosteriorMeanState() *core.State {
	n := s.Graph.NumVertices()
	k := s.Cfg.K
	st := &core.State{
		N:      n,
		K:      k,
		Pi:     make([]float32, n*k),
		PhiSum: make([]float64, n),
		Theta:  append([]float64(nil), s.Lambda...),
		Beta:   make([]float64, k),
	}
	for a := 0; a < n; a++ {
		row := s.GammaRow(a)
		var sum float64
		for _, v := range row {
			sum += v
		}
		st.PhiSum[a] = sum
		dst := st.PiRow(a)
		for kk, v := range row {
			dst[kk] = float32(v / sum)
		}
	}
	st.RefreshBeta()
	return st
}

// Validate checks the variational state invariants: all parameters strictly
// positive and finite.
func (s *Sampler) Validate() error {
	for i, v := range s.Gamma {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("svi: γ[%d] = %v", i, v)
		}
	}
	for i, v := range s.Lambda {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("svi: λ[%d] = %v", i, v)
		}
	}
	return nil
}
