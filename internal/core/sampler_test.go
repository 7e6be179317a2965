package core

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/store"
)

func plantedFixture(t *testing.T, n, k, edges int, seed uint64) (*graph.Graph, *graph.HeldOut) {
	t.Helper()
	g, _, err := gen.Planted(gen.DefaultPlanted(n, k, edges, seed))
	if err != nil {
		t.Fatal(err)
	}
	train, held, err := graph.Split(g, g.NumEdges()/10, mathx.NewRNG(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return train, held
}

func TestSamplerStepMaintainsInvariants(t *testing.T) {
	train, held := plantedFixture(t, 300, 6, 1500, 31)
	tracer := obs.NewTracer(0, 0)
	s, err := NewSampler(DefaultConfig(6, 5), train, held, SamplerOptions{Threads: 2, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Step()
	}
	if s.Iteration() != 50 {
		t.Fatalf("iteration = %d, want 50", s.Iteration())
	}
	if err := s.State.Validate(); err != nil {
		t.Fatalf("state invalid after 50 steps: %v", err)
	}

	// One measurement, two views: the stage spans and the phase table come
	// from the same clock reads, so they agree to the nanosecond, and the
	// sub-stage intervals nest inside the stage that brackets them.
	spanNS := map[string]int64{}
	for _, sp := range tracer.Bundle().Spans {
		if sp.Cat == obs.CatStage {
			spanNS[sp.Name] += sp.DurNS
		}
	}
	for _, name := range []string{engine.PhaseDrawMinibatch, engine.PhaseUpdatePhi, engine.PhaseUpdatePi, engine.PhaseUpdateBetaTheta} {
		if got, want := spanNS[name], int64(s.Phases.Total(name)); got != want || want == 0 {
			t.Errorf("%s: Σ span DurNS = %d, phase table = %d; want equal and nonzero", name, got, want)
		}
	}
	if len(spanNS) != 4 {
		t.Errorf("stage spans %v, want exactly the four loop stages", spanNS)
	}
	sample := s.Phases.Total(engine.PhaseSampleNeighbors)
	load, compute := s.Phases.Total(engine.PhaseLoadPi), s.Phases.Total(engine.PhaseComputePhi)
	if phi := s.Phases.Total(engine.PhaseUpdatePhi); sample == 0 || load == 0 || compute == 0 || sample+load+compute > phi {
		t.Errorf("sample_neighbors %v + load_pi %v + compute %v must each be nonzero and sum within update_phi %v",
			sample, load, compute, phi)
	}
}

func TestSamplerDeterministicAcrossThreadCounts(t *testing.T) {
	train, held := plantedFixture(t, 200, 5, 1000, 32)
	run := func(threads int) *State {
		s, err := NewSampler(DefaultConfig(5, 77), train, held, SamplerOptions{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(20)
		return s.State
	}
	s1 := run(1)
	s4 := run(4)
	if d := mathx.MaxAbsDiff32(s1.Pi, s4.Pi); d != 0 {
		t.Fatalf("π differs across thread counts by %v; want bit-exact", d)
	}
	if d := mathx.MaxAbsDiff(s1.Theta, s4.Theta); d != 0 {
		t.Fatalf("θ differs across thread counts by %v; want bit-exact", d)
	}
}

func TestSamplerDeterministicAcrossRuns(t *testing.T) {
	train, held := plantedFixture(t, 150, 4, 700, 33)
	run := func() *State {
		s, err := NewSampler(DefaultConfig(4, 99), train, held, SamplerOptions{Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(15)
		return s.State
	}
	a, b := run(), run()
	if mathx.MaxAbsDiff32(a.Pi, b.Pi) != 0 || mathx.MaxAbsDiff(a.Theta, b.Theta) != 0 {
		t.Fatal("same-seed runs diverged")
	}
}

func TestSamplerImprovesPerplexity(t *testing.T) {
	train, held := plantedFixture(t, 400, 4, 3000, 34)
	cfg := DefaultConfig(4, 11)
	s, err := NewSampler(cfg, train, held, SamplerOptions{Threads: 4, NeighborCount: 20})
	if err != nil {
		t.Fatal(err)
	}
	before := Perplexity(s.State, held, cfg.Delta, 4)
	s.Run(400)
	after := Perplexity(s.State, held, cfg.Delta, 4)
	if after >= before*0.9 {
		t.Fatalf("perplexity did not improve: before %v, after %v", before, after)
	}
	if err := s.State.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerStratifiedStrategy(t *testing.T) {
	train, held := plantedFixture(t, 250, 5, 1200, 35)
	s, err := NewSampler(DefaultConfig(5, 13), train, held, SamplerOptions{
		Stratified: true, Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30)
	if err := s.State.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Edges.Name() != "stratified-node" {
		t.Fatalf("strategy = %s", s.Edges.Name())
	}
}

func TestSamplerUniformNeighborOption(t *testing.T) {
	train, held := plantedFixture(t, 250, 5, 1200, 36)
	s, err := NewSampler(DefaultConfig(5, 13), train, held, SamplerOptions{
		UniformNeighbors: true, NeighborCount: 24, Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30)
	if s.Neighbors.Name() != "uniform" {
		t.Fatalf("neighbor strategy = %s", s.Neighbors.Name())
	}
	if err := s.State.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerWithoutHeldOut(t *testing.T) {
	g, _, err := gen.Planted(gen.DefaultPlanted(100, 4, 500, 37))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(DefaultConfig(4, 1), g, nil, SamplerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("EvalPerplexity without held-out did not panic")
		}
	}()
	s.EvalPerplexity()
}

func TestSamplerRejectsInvalidConfig(t *testing.T) {
	g, _, _ := gen.Planted(gen.DefaultPlanted(100, 4, 500, 38))
	bad := DefaultConfig(0, 1)
	if _, err := NewSampler(bad, g, nil, SamplerOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// foldPerplexity folds state s into h as one posterior sample, through a
// LocalStore view as the sequential sampler does, and returns Eqn (7).
func foldPerplexity(t *testing.T, h *HeldOutEval, s *State, threads int) float64 {
	t.Helper()
	partials, err := h.Fold(store.NewLocal(s.Pi, s.PhiSum, s.K, threads), s.Beta, threads)
	if err != nil {
		t.Fatal(err)
	}
	var logSum float64
	for _, v := range partials {
		logSum += v
	}
	return PerplexityFromLogSum(logSum, h.Held.Len())
}

func TestPerplexityAveragerMatchesManual(t *testing.T) {
	train, held := plantedFixture(t, 120, 4, 600, 39)
	cfg := DefaultConfig(4, 3)
	s, _ := NewState(cfg, train.NumVertices())
	avg := NewHeldOutEval(held, cfg.Delta, 0, held.Len())
	one := foldPerplexity(t, avg, s, 2)
	// With a single sample, the averager equals the direct computation.
	direct := Perplexity(s, held, cfg.Delta, 2)
	if math.Abs(one-direct)/direct > 1e-9 {
		t.Fatalf("averager %v != direct %v for T=1", one, direct)
	}
	if avg.T != 1 {
		t.Fatalf("samples = %d", avg.T)
	}
}

func TestPerplexityAveragerAverages(t *testing.T) {
	// Two different states; the averaged probability per pair must be the
	// mean of the individual probabilities, so the perplexity differs from
	// both single-sample values.
	train, held := plantedFixture(t, 120, 4, 600, 40)
	cfg := DefaultConfig(4, 4)
	s1, _ := NewState(cfg, train.NumVertices())
	cfg2 := cfg
	cfg2.Seed = 5
	s2, _ := NewState(cfg2, train.NumVertices())

	avg := NewHeldOutEval(held, cfg.Delta, 0, held.Len())
	foldPerplexity(t, avg, s1, 0)
	got := foldPerplexity(t, avg, s2, 0)

	// Manual: running mean of per-pair probabilities.
	var logSum float64
	for i, e := range held.Pairs {
		p1 := EdgeProbability(s1.PiRow(int(e.A)), s1.PiRow(int(e.B)), s1.Beta, cfg.Delta, held.Linked[i])
		p2 := EdgeProbability(s2.PiRow(int(e.A)), s2.PiRow(int(e.B)), s2.Beta, cfg.Delta, held.Linked[i])
		logSum += math.Log((p1 + p2) / 2)
	}
	want := math.Exp(-logSum / float64(held.Len()))
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("averaged perplexity %v, want %v", got, want)
	}
}

func TestPerplexityWorkerIndependence(t *testing.T) {
	train, held := plantedFixture(t, 200, 4, 1000, 41)
	cfg := DefaultConfig(4, 6)
	s, _ := NewState(cfg, train.NumVertices())
	p1 := Perplexity(s, held, cfg.Delta, 1)
	p8 := Perplexity(s, held, cfg.Delta, 8)
	if p1 != p8 {
		t.Fatalf("perplexity differs across worker counts: %v vs %v", p1, p8)
	}
}

func TestUpdatePhiProducesValidRows(t *testing.T) {
	cfg := DefaultConfig(6, 2)
	s, _ := NewState(cfg, 20)
	rng := mathx.NewRNG(50)
	sc := NewPhiScratch(6)
	newPhi := make([]float64, 6)
	piB := [][]float32{s.PiRow(1), s.PiRow(2), s.PiRow(3)}
	linked := []bool{true, false, false}
	weight := []float64{1, 5, 5}
	for trial := 0; trial < 100; trial++ {
		UpdatePhi(&cfg, cfg.StepSize(trial), s.PiRow(0), s.PhiSum[0], piB, linked, weight, s.Beta, rng, newPhi, sc)
		for k, v := range newPhi {
			if v < cfg.PhiFloor || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trial %d: newPhi[%d] = %v", trial, k, v)
			}
		}
		s.SetPhiRow(0, newPhi)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyThetaUpdateKeepsPositive(t *testing.T) {
	cfg := DefaultConfig(8, 3)
	s, _ := NewState(cfg, 10)
	rng := mathx.NewRNG(60)
	grad := make([]float64, 16)
	for i := range grad {
		grad[i] = (rng.Float64() - 0.5) * 10
	}
	for trial := 0; trial < 200; trial++ {
		ApplyThetaUpdate(&cfg, cfg.StepSize(trial), 100, grad, s.Theta, rng)
	}
	s.RefreshBeta()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
