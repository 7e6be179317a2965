package core

import (
	"math"
	"testing"
)

func TestPosteriorMeanAverages(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	s1, _ := NewState(cfg, 2)
	s2, _ := NewState(cfg, 2)
	s1.SetPhiRow(0, []float64{1, 0.001, 0.001})
	s2.SetPhiRow(0, []float64{0.001, 1, 0.001})

	acc := NewPosteriorMean(2, 3)
	acc.Add(s1)
	acc.Add(s2)
	if acc.t != 2 {
		t.Fatalf("samples = %d", acc.t)
	}
	avg := acc.State()
	row := avg.PiRow(0)
	// Mean of (≈1,0,0) and (0,≈1,0) is ≈(0.5, 0.5, 0).
	if math.Abs(float64(row[0])-0.5) > 0.01 || math.Abs(float64(row[1])-0.5) > 0.01 {
		t.Fatalf("averaged row = %v", row)
	}
	if err := avg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPosteriorMeanPanics(t *testing.T) {
	acc := NewPosteriorMean(2, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty State() did not panic")
			}
		}()
		acc.State()
	}()
	cfg := DefaultConfig(4, 1) // wrong K
	s, _ := NewState(cfg, 2)
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	acc.Add(s)
}

// TestPosteriorMeanStabilisesEstimates: averaging the chain tail should not
// hurt (and typically helps) held-out perplexity relative to the last raw
// sample.
func TestPosteriorMeanStabilisesEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("training too slow for -short")
	}
	train, held := plantedFixture(t, 300, 4, 2500, 61)
	cfg := DefaultConfig(4, 62)
	cfg.Alpha = 0.25
	cfg.StepA = 0.05
	cfg.StepB = 4096
	s, err := NewSampler(cfg, train, held, SamplerOptions{Threads: 0, MinibatchPairs: 128})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1200)
	acc := NewPosteriorMean(train.NumVertices(), 4)
	for i := 0; i < 20; i++ {
		s.Run(20)
		acc.Add(s.State)
	}
	last := Perplexity(s.State, held, cfg.Delta, 0)
	avg := Perplexity(acc.State(), held, cfg.Delta, 0)
	t.Logf("perplexity: last sample %.4f, posterior mean %.4f", last, avg)
	if avg > last*1.05 {
		t.Fatalf("posterior mean (%.4f) clearly worse than last sample (%.4f)", avg, last)
	}
}
