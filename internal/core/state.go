package core

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// State holds the model parameters. Following the paper's memory layout
// (Section III-A), the N×K matrix φ is not stored: only π (float32) and the
// per-vertex row sums Σφ (float64) are kept, and φ_ak = π_ak · Σφ_a is
// recomputed on demand. For the paper's largest run this trades 3 TB of φ
// storage for a multiply in the inner loop.
type State struct {
	N int
	K int

	// Pi is the row-major N×K membership matrix; row a is
	// Pi[a*K : (a+1)*K] and sums to 1.
	Pi []float32
	// PhiSum[a] = Σ_k φ_ak.
	PhiSum []float64
	// Theta is the row-major K×2 global parameter; θ_ki = Theta[k*2+i].
	// Index 1 is the "link" pseudo-count: β_k = θ_k1 / (θ_k0 + θ_k1).
	Theta []float64
	// Beta[k] is the community strength, derived from Theta.
	Beta []float64
}

// NewState draws the initial state from the priors: φ_ak ~ Gamma(α, 1)
// and θ_ki ~ Gamma(η_i, 1), then derives π and β by normalisation.
func NewState(cfg Config, n int) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: N = %d, need at least 1", n)
	}
	s := &State{
		N:      n,
		K:      cfg.K,
		Pi:     make([]float32, n*cfg.K),
		PhiSum: make([]float64, n),
		Theta:  InitTheta(cfg),
		Beta:   make([]float64, cfg.K),
	}
	for a := 0; a < n; a++ {
		s.PhiSum[a] = InitPiRow(cfg, a, s.PiRow(a))
	}
	s.RefreshBeta()
	return s, nil
}

// NewStateShell builds a State that holds only the global parameters (θ, β):
// Pi and PhiSum stay nil because the π table lives in an external PiStore
// (mmap, tiered, or DKV). The store must be populated separately with
// InitPiRow per vertex — e.g. MmapStore.InitRows(ShellInit(cfg)) — which
// yields exactly the rows NewState would have drawn, so a shell-backed run
// is bit-identical to an in-RAM one.
func NewStateShell(cfg Config, n int) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: N = %d, need at least 1", n)
	}
	s := &State{
		N:     n,
		K:     cfg.K,
		Theta: InitTheta(cfg),
		Beta:  make([]float64, cfg.K),
	}
	s.RefreshBeta()
	return s, nil
}

// ShellInit adapts InitPiRow to the initRow callback shape MmapStore.InitRows
// takes, closing over cfg.
func ShellInit(cfg Config) func(a int, pi []float32) float64 {
	return func(a int, pi []float32) float64 {
		return InitPiRow(cfg, a, pi)
	}
}

// InitPiRow draws vertex a's prior φ_a ~ Gamma(α, 1) row, stores the
// normalised π_a into pi (length K) and returns Σφ_a. Both engines
// initialise through this function, so a distributed shard holds exactly the
// rows a single-node State would.
func InitPiRow(cfg Config, a int, pi []float32) float64 {
	rng := mathx.NewStream(cfg.Seed, streamInit(a))
	phi := make([]float64, cfg.K)
	var sum float64
	for k := range phi {
		v := rng.Gamma(cfg.Alpha) + cfg.PhiFloor
		phi[k] = v
		sum += v
	}
	for k, v := range phi {
		pi[k] = float32(v / sum)
	}
	return sum
}

// InitTheta draws the prior θ_ki ~ Gamma(η_i, 1) global parameters.
func InitTheta(cfg Config) []float64 {
	rng := mathx.NewStream(cfg.Seed, streamInitTheta)
	theta := make([]float64, cfg.K*2)
	for k := 0; k < cfg.K; k++ {
		theta[k*2] = rng.Gamma(cfg.Eta0)
		theta[k*2+1] = rng.Gamma(cfg.Eta1)
	}
	return theta
}

// PiRow returns π_a as a mutable slice into the state.
func (s *State) PiRow(a int) []float32 {
	return s.Pi[a*s.K : (a+1)*s.K]
}

// PhiRow reconstructs φ_a = π_a · Σφ_a into out (length K).
func (s *State) PhiRow(a int, out []float64) {
	row := s.PiRow(a)
	sum := s.PhiSum[a]
	for k, v := range row {
		out[k] = float64(v) * sum
	}
}

// SetPhiRow stores a new φ_a by writing π_a = φ/Σφ and Σφ_a.
func (s *State) SetPhiRow(a int, phi []float64) {
	var sum float64
	for _, v := range phi {
		sum += v
	}
	s.PhiSum[a] = sum
	row := s.PiRow(a)
	inv := 1 / sum
	for k, v := range phi {
		row[k] = float32(v * inv)
	}
}

// RefreshBeta recomputes β from θ.
func (s *State) RefreshBeta() {
	for k := 0; k < s.K; k++ {
		s.Beta[k] = s.Theta[k*2+1] / (s.Theta[k*2] + s.Theta[k*2+1])
	}
}

// Validate checks the model invariants: π rows on the simplex, positive φ
// sums, positive θ, β in (0,1). Intended for tests; O(N·K).
func (s *State) Validate() error {
	if len(s.Pi) != s.N*s.K || len(s.PhiSum) != s.N || len(s.Theta) != 2*s.K || len(s.Beta) != s.K {
		return fmt.Errorf("core: state shape mismatch")
	}
	for a := 0; a < s.N; a++ {
		var sum float64
		for _, v := range s.PiRow(a) {
			if v < 0 || math.IsNaN(float64(v)) {
				return fmt.Errorf("core: π[%d] has invalid component %v", a, v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			return fmt.Errorf("core: π[%d] sums to %v", a, sum)
		}
		if s.PhiSum[a] <= 0 || math.IsNaN(s.PhiSum[a]) {
			return fmt.Errorf("core: Σφ[%d] = %v", a, s.PhiSum[a])
		}
	}
	for k := 0; k < s.K; k++ {
		if s.Theta[k*2] <= 0 || s.Theta[k*2+1] <= 0 {
			return fmt.Errorf("core: θ[%d] = (%v, %v), need positive", k, s.Theta[k*2], s.Theta[k*2+1])
		}
		if b := s.Beta[k]; b <= 0 || b >= 1 || math.IsNaN(b) {
			return fmt.Errorf("core: β[%d] = %v", k, b)
		}
	}
	return nil
}

// Stream identifiers: every random draw in the system is tied to a
// (purpose, iteration, vertex) triple so results do not depend on thread or
// rank scheduling. Iterations and vertices fit comfortably in 31 bits each.
const (
	streamTagInit      = 0
	streamTagMinibatch = 1
	streamTagVertex    = 2
	streamTagTheta     = 3
	streamInitTheta    = 1<<62 | 1
)

func streamInit(a int) uint64 {
	return uint64(streamTagInit)<<62 | uint64(a)
}

// StreamMinibatch identifies the RNG stream that draws iteration t's edge
// minibatch.
func StreamMinibatch(t int) uint64 {
	return uint64(streamTagMinibatch)<<62 | uint64(t)
}

// StreamVertex identifies the RNG stream for vertex a's neighbor sampling
// and Langevin noise in iteration t.
func StreamVertex(t, a int) uint64 {
	return uint64(streamTagVertex)<<62 | uint64(t)<<31 | uint64(a)
}

// StreamTheta identifies the RNG stream for the global update's noise in
// iteration t.
func StreamTheta(t int) uint64 {
	return uint64(streamTagTheta)<<62 | uint64(t)
}
