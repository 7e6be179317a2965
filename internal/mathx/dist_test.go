package mathx

import (
	"math"
	"testing"
)

func sampleMoments(n int, draw func() float64) (mean, variance float64) {
	var w Welford
	for i := 0; i < n; i++ {
		w.Add(draw())
	}
	return w.Mean(), w.Var()
}

func TestGammaMoments(t *testing.T) {
	r := NewRNG(100)
	for _, shape := range []float64{0.05, 0.3, 0.9, 1.0, 2.5, 10, 100} {
		mean, variance := sampleMoments(200000, func() float64 { return r.Gamma(shape) })
		// Gamma(a,1): mean a, variance a.
		tolM := 0.03 * math.Max(shape, 0.3)
		if math.Abs(mean-shape) > tolM {
			t.Errorf("Gamma(%v) mean = %v, want %v", shape, mean, shape)
		}
		tolV := 0.08 * math.Max(shape, 0.3)
		if math.Abs(variance-shape) > tolV {
			t.Errorf("Gamma(%v) variance = %v, want %v", shape, variance, shape)
		}
	}
}

func TestGammaPositive(t *testing.T) {
	r := NewRNG(101)
	for _, shape := range []float64{0.01, 0.5, 1, 5} {
		for i := 0; i < 10000; i++ {
			if v := r.Gamma(shape); v < 0 || math.IsNaN(v) {
				t.Fatalf("Gamma(%v) produced %v", shape, v)
			}
		}
	}
}

func TestGammaPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(0) did not panic")
		}
	}()
	NewRNG(1).Gamma(0)
}

func TestBetaMoments(t *testing.T) {
	r := NewRNG(102)
	cases := []struct{ a, b float64 }{{1, 1}, {2, 5}, {0.5, 0.5}, {10, 1}}
	for _, c := range cases {
		mean, variance := sampleMoments(200000, func() float64 { return r.Beta(c.a, c.b) })
		wantM := c.a / (c.a + c.b)
		wantV := c.a * c.b / ((c.a + c.b) * (c.a + c.b) * (c.a + c.b + 1))
		if math.Abs(mean-wantM) > 0.01 {
			t.Errorf("Beta(%v,%v) mean = %v, want %v", c.a, c.b, mean, wantM)
		}
		if math.Abs(variance-wantV) > 0.01 {
			t.Errorf("Beta(%v,%v) variance = %v, want %v", c.a, c.b, variance, wantV)
		}
	}
}

func TestBetaInUnitInterval(t *testing.T) {
	r := NewRNG(103)
	for i := 0; i < 50000; i++ {
		v := r.Beta(0.1, 0.1)
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("Beta out of [0,1]: %v", v)
		}
	}
}

func TestDirichletSimplex(t *testing.T) {
	r := NewRNG(104)
	for _, k := range []int{1, 2, 10, 100} {
		out := make([]float64, k)
		for trial := 0; trial < 200; trial++ {
			r.Dirichlet(0.5, out)
			sum := 0.0
			for _, v := range out {
				if v < 0 {
					t.Fatalf("Dirichlet negative component %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("Dirichlet sum = %v, want 1", sum)
			}
		}
	}
}

func TestDirichletMean(t *testing.T) {
	// Symmetric Dirichlet has mean 1/K per component.
	r := NewRNG(105)
	const k = 5
	out := make([]float64, k)
	acc := make([]float64, k)
	const trials = 100000
	for i := 0; i < trials; i++ {
		r.Dirichlet(1.0, out)
		for j, v := range out {
			acc[j] += v
		}
	}
	for j, s := range acc {
		mean := s / trials
		if math.Abs(mean-1.0/k) > 0.005 {
			t.Errorf("component %d mean = %v, want %v", j, mean, 1.0/k)
		}
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := NewRNG(107)
	w := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Categorical(w)]++
	}
	for i, c := range counts {
		want := w[i] / 10 * draws
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("Categorical bucket %d = %d, want %.0f", i, c, want)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := NewRNG(108)
	cases := []struct {
		n int
		p float64
	}{{10, 0.5}, {1000, 0.01}, {100, 0.9}, {1, 0.3}}
	for _, c := range cases {
		mean, variance := sampleMoments(100000, func() float64 { return float64(r.Binomial(c.n, c.p)) })
		wantM := float64(c.n) * c.p
		wantV := float64(c.n) * c.p * (1 - c.p)
		if math.Abs(mean-wantM) > 0.05*math.Max(wantM, 1) {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, mean, wantM)
		}
		if math.Abs(variance-wantV) > 0.1*math.Max(wantV, 1) {
			t.Errorf("Binomial(%d,%v) variance = %v, want %v", c.n, c.p, variance, wantV)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := NewRNG(109)
	if r.Binomial(0, 0.5) != 0 {
		t.Fatal("Binomial(0, p) != 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Fatal("Binomial(n, 0) != 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Fatal("Binomial(n, 1) != n")
	}
	for i := 0; i < 1000; i++ {
		if v := r.Binomial(20, 0.3); v < 0 || v > 20 {
			t.Fatalf("Binomial out of range: %d", v)
		}
	}
}
