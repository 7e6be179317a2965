package core

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(16, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Eta0 = 0 },
		func(c *Config) { c.Eta1 = -1 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.Delta = 1 },
		func(c *Config) { c.StepA = 0 },
		func(c *Config) { c.StepB = 0 },
		func(c *Config) { c.StepC = 0.5 },
		func(c *Config) { c.StepC = 1.5 },
		func(c *Config) { c.PhiFloor = 0 },
	}
	for i, mutate := range mutations {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestStepSizeSchedule(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	prev := math.Inf(1)
	for _, tt := range []int{0, 1, 10, 100, 1000, 100000} {
		e := cfg.StepSize(tt)
		if e <= 0 || e >= prev {
			t.Fatalf("step size not strictly decreasing: ε(%d) = %v, prev %v", tt, e, prev)
		}
		prev = e
	}
	if cfg.StepSize(0) != cfg.StepA {
		t.Fatalf("ε(0) = %v, want StepA", cfg.StepSize(0))
	}
}

func TestNewStateInvariants(t *testing.T) {
	cfg := DefaultConfig(8, 42)
	s, err := NewState(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic under the same seed.
	s2, _ := NewState(cfg, 50)
	if mathx.MaxAbsDiff32(s.Pi, s2.Pi) != 0 {
		t.Fatal("state init not deterministic")
	}
	if _, err := NewState(cfg, 0); err == nil {
		t.Fatal("N=0 accepted")
	}
	bad := cfg
	bad.K = 0
	if _, err := NewState(bad, 10); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPhiRowRoundTrip(t *testing.T) {
	cfg := DefaultConfig(5, 7)
	s, _ := NewState(cfg, 10)
	phi := []float64{1, 2, 3, 4, 10}
	s.SetPhiRow(3, phi)
	if math.Abs(s.PhiSum[3]-20) > 1e-9 {
		t.Fatalf("PhiSum = %v, want 20", s.PhiSum[3])
	}
	back := make([]float64, 5)
	s.PhiRow(3, back)
	for k := range phi {
		if math.Abs(back[k]-phi[k]) > 1e-4 {
			t.Fatalf("PhiRow[%d] = %v, want %v", k, back[k], phi[k])
		}
	}
	// π row must be on the simplex.
	var sum float64
	for _, v := range s.PiRow(3) {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("π row sums to %v", sum)
	}
}

func TestEdgeProbabilityManual(t *testing.T) {
	piA := []float32{0.5, 0.5}
	piB := []float32{0.5, 0.5}
	beta := []float64{0.8, 0.6}
	const delta = 0.1
	// y=1: Σ π π β + (1-Σ π π) δ = 0.35 + 0.5·0.1 = 0.40
	if p := EdgeProbability(piA, piB, beta, delta, true); math.Abs(p-0.40) > 1e-9 {
		t.Fatalf("p(y=1) = %v, want 0.40", p)
	}
	// y=0: Σ π π (1-β) + (1-Σ π π)(1-δ) = 0.15 + 0.45 = 0.60
	if p := EdgeProbability(piA, piB, beta, delta, false); math.Abs(p-0.60) > 1e-9 {
		t.Fatalf("p(y=0) = %v, want 0.60", p)
	}
}

func TestEdgeProbabilityComplementary(t *testing.T) {
	// p(y=1) + p(y=0) = 1 for any parameters.
	rng := mathx.NewRNG(13)
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(10)
		piA := randomSimplex32(rng, k)
		piB := randomSimplex32(rng, k)
		beta := make([]float64, k)
		for i := range beta {
			beta[i] = rng.Float64Open()
		}
		delta := rng.Float64Open() * 0.5
		p1 := EdgeProbability(piA, piB, beta, delta, true)
		p0 := EdgeProbability(piA, piB, beta, delta, false)
		if math.Abs(p1+p0-1) > 1e-6 {
			t.Fatalf("p1+p0 = %v, want 1 (k=%d)", p1+p0, k)
		}
		if p1 < 0 || p0 < 0 {
			t.Fatalf("negative probability: %v / %v", p1, p0)
		}
	}
}

func randomSimplex32(rng *mathx.RNG, k int) []float32 {
	tmp := make([]float64, k)
	rng.Dirichlet(1, tmp)
	out := make([]float32, k)
	for i, v := range tmp {
		out[i] = float32(v)
	}
	return out
}

// logLik64 is a float64 reference implementation of log p(y_ab); the
// numerical gradient checks differentiate this, because perturbing the
// float32 production path by ~1e-6 lands below float32 resolution.
func logLik64(piA, piB, beta []float64, delta float64, linked bool) float64 {
	var p float64
	for k := range beta {
		w := beta[k]
		wd := delta
		if !linked {
			w = 1 - beta[k]
			wd = 1 - delta
		}
		p += piA[k] * (piB[k]*w + (1-piB[k])*wd)
	}
	return math.Log(p)
}

// logLikAsPhi evaluates log p(y_ab) as a function of an explicit φ_a vector.
func logLikAsPhi(phiA []float64, piB, beta []float64, delta float64, linked bool) float64 {
	var sum float64
	for _, v := range phiA {
		sum += v
	}
	piA := make([]float64, len(phiA))
	for i, v := range phiA {
		piA[i] = v / sum
	}
	return logLik64(piA, piB, beta, delta, linked)
}

func TestPhiGradientMatchesNumerical(t *testing.T) {
	rng := mathx.NewRNG(21)
	const k = 6
	for trial := 0; trial < 50; trial++ {
		phiA := make([]float64, k)
		var phiSum float64
		for i := range phiA {
			phiA[i] = rng.Gamma(1) + 0.05
			phiSum += phiA[i]
		}
		piA := make([]float32, k)
		for i, v := range phiA {
			piA[i] = float32(v / phiSum)
		}
		piB := randomSimplex32(rng, k)
		piB64 := make([]float64, k)
		for i, v := range piB {
			piB64[i] = float64(v)
		}
		beta := make([]float64, k)
		for i := range beta {
			beta[i] = 0.1 + 0.8*rng.Float64()
		}
		delta := 0.01
		linked := trial%2 == 0

		grad := make([]float64, k)
		q := make([]float64, k)
		w := make([]float64, k)
		phiGradient(piA, piB, beta, delta, linked, 1.0, grad, q, w)
		// The kernel returns φsum·g; divide to get g_ab(φ_ak).
		for i := range grad {
			grad[i] /= phiSum
		}

		for i := 0; i < k; i++ {
			h := 1e-6 * phiA[i]
			up := append([]float64(nil), phiA...)
			dn := append([]float64(nil), phiA...)
			up[i] += h
			dn[i] -= h
			num := (logLikAsPhi(up, piB64, beta, delta, linked) -
				logLikAsPhi(dn, piB64, beta, delta, linked)) / (2 * h)
			// Tolerance covers the float32 quantisation of the production
			// π rows that feed the analytic kernel.
			if diff := math.Abs(num - grad[i]); diff > 1e-4*math.Max(1, math.Abs(num)) {
				t.Fatalf("trial %d, k=%d: analytic %v, numerical %v", trial, i, grad[i], num)
			}
		}
	}
}

// logLikAsTheta evaluates log p(y_ab) as a function of θ.
func logLikAsTheta(theta []float64, piA, piB []float32, delta float64, linked bool) float64 {
	k := len(theta) / 2
	beta := make([]float64, k)
	for i := 0; i < k; i++ {
		beta[i] = theta[i*2+1] / (theta[i*2] + theta[i*2+1])
	}
	return LogLikelihoodPair(piA, piB, beta, delta, linked)
}

func TestThetaGradientMatchesNumerical(t *testing.T) {
	rng := mathx.NewRNG(22)
	const k = 5
	for trial := 0; trial < 50; trial++ {
		theta := make([]float64, 2*k)
		beta := make([]float64, k)
		for i := 0; i < k; i++ {
			theta[i*2] = rng.Gamma(2) + 0.1
			theta[i*2+1] = rng.Gamma(2) + 0.1
			beta[i] = theta[i*2+1] / (theta[i*2] + theta[i*2+1])
		}
		piA := randomSimplex32(rng, k)
		piB := randomSimplex32(rng, k)
		delta := 0.02
		linked := trial%2 == 0

		grad := make([]float64, 2*k)
		w := make([]float64, k)
		thetaGradient(piA, piB, theta, beta, delta, linked, grad, w)

		for idx := 0; idx < 2*k; idx++ {
			h := 1e-6 * theta[idx]
			up := append([]float64(nil), theta...)
			dn := append([]float64(nil), theta...)
			up[idx] += h
			dn[idx] -= h
			num := (logLikAsTheta(up, piA, piB, delta, linked) -
				logLikAsTheta(dn, piA, piB, delta, linked)) / (2 * h)
			if diff := math.Abs(num - grad[idx]); diff > 1e-3*math.Max(1, math.Abs(num)) {
				t.Fatalf("trial %d, θ[%d]: analytic %v, numerical %v", trial, idx, grad[idx], num)
			}
		}
	}
}

func TestLinkWeights(t *testing.T) {
	beta := []float64{0.7, 0.2}
	w := make([]float64, 2)
	wd := linkWeights(beta, 0.05, true, w)
	if w[0] != 0.7 || w[1] != 0.2 || wd != 0.05 {
		t.Fatalf("linked weights wrong: %v %v", w, wd)
	}
	wd = linkWeights(beta, 0.05, false, w)
	if math.Abs(w[0]-0.3) > 1e-12 || math.Abs(w[1]-0.8) > 1e-12 || math.Abs(wd-0.95) > 1e-12 {
		t.Fatalf("unlinked weights wrong: %v %v", w, wd)
	}
}

func TestPhiGradientFusedParity(t *testing.T) {
	// The fused kernel skips the materialised link-weight table; it must be
	// bit-identical to the reference three-pass kernel — same operations in
	// the same order — for both observation values and across weights.
	rng := mathx.NewRNG(87)
	const k = 7
	for trial := 0; trial < 200; trial++ {
		piA := randomSimplex32(rng, k)
		piB := randomSimplex32(rng, k)
		beta := make([]float64, k)
		for i := range beta {
			beta[i] = 0.05 + 0.9*rng.Float64()
		}
		delta := 0.001 + 0.02*rng.Float64()
		linked := trial%2 == 0
		weight := rng.Gamma(2)

		ref := make([]float64, k)
		fused := make([]float64, k)
		// Seed both accumulators with the same nonzero values so the
		// accumulation step (+=) is exercised, not just the first write.
		for i := range ref {
			v := rng.Float64() - 0.5
			ref[i] = v
			fused[i] = v
		}
		q := make([]float64, k)
		w := make([]float64, k)
		phiGradient(piA, piB, beta, delta, linked, weight, ref, q, w)
		phiGradientFused(piA, piB, beta, delta, linked, weight, fused, q)
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(fused[i]) {
				t.Fatalf("trial %d (linked=%v), k=%d: fused %v != reference %v (not bit-identical)",
					trial, linked, i, fused[i], ref[i])
			}
		}
	}
}
