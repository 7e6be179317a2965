package core

// PosteriorMean accumulates a running average of the chain's π and β samples.
// A single SGLD sample is noisy (the injected Langevin noise never vanishes
// at a fixed step size); the posterior mean over the tail of the chain is
// the estimator actually used for downstream tasks like community
// extraction. Memory is one extra float64 copy of π.
type PosteriorMean struct {
	n    int
	k    int
	t    int
	pi   []float64
	beta []float64
}

// NewPosteriorMean creates an empty accumulator for an N×K model.
func NewPosteriorMean(n, k int) *PosteriorMean {
	return &PosteriorMean{n: n, k: k, pi: make([]float64, n*k), beta: make([]float64, k)}
}

// Add folds one chain state into the running means.
func (p *PosteriorMean) Add(s *State) {
	if s.N != p.n || s.K != p.k {
		panic("core: posterior accumulator shape mismatch")
	}
	p.t++
	inv := 1 / float64(p.t)
	for i, v := range s.Pi {
		p.pi[i] += (float64(v) - p.pi[i]) * inv
	}
	for i, v := range s.Beta {
		p.beta[i] += (v - p.beta[i]) * inv
	}
}

// State materialises the averaged estimate as a core.State (π rows are
// re-normalised against float32 rounding; Σφ and θ carry placeholder values
// consistent with β). It panics if no samples were added.
func (p *PosteriorMean) State() *State {
	if p.t == 0 {
		panic("core: posterior mean requested before any sample")
	}
	s := &State{
		N:      p.n,
		K:      p.k,
		Pi:     make([]float32, p.n*p.k),
		PhiSum: make([]float64, p.n),
		Theta:  make([]float64, 2*p.k),
		Beta:   append([]float64(nil), p.beta...),
	}
	for a := 0; a < p.n; a++ {
		row := p.pi[a*p.k : (a+1)*p.k]
		var sum float64
		for _, v := range row {
			sum += v
		}
		s.PhiSum[a] = 1
		dst := s.PiRow(a)
		inv := 1 / sum
		for k, v := range row {
			dst[k] = float32(v * inv)
		}
	}
	for k := 0; k < p.k; k++ {
		// θ consistent with the averaged β at unit scale.
		s.Theta[k*2] = 1 - p.beta[k]
		s.Theta[k*2+1] = p.beta[k]
	}
	return s
}
