package sampling

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
)

func benchFixture(b *testing.B) *graph.Graph {
	b.Helper()
	g, _, err := gen.Planted(gen.DefaultPlanted(20000, 64, 200000, 1))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkRandomPairSample measures edge-minibatch drawing — the master's
// per-iteration sampling work in the distributed engine.
func BenchmarkRandomPairSample(b *testing.B) {
	g := benchFixture(b)
	s, err := NewRandomPair(g, nil, 512)
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(2)
	var batch Batch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng, &batch)
	}
}

// BenchmarkStratifiedSample measures the stratified-node alternative.
func BenchmarkStratifiedSample(b *testing.B) {
	g := benchFixture(b)
	s, err := NewStratifiedNode(g, nil, 0.5, 64)
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(3)
	var batch Batch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng, &batch)
	}
}

// neighborBench draws the neighbour set of a random vertex per op, over a
// training graph with its held-out pairs excluded — the view update_phi
// samples from — so the link test, the exclusion test and the adjacency rows
// miss cache as they do in a live minibatch.
func neighborBench(b *testing.B, build func(View) (NeighborStrategy, error)) {
	train, held, err := graph.Split(benchFixture(b), 20000, mathx.NewRNG(6))
	if err != nil {
		b.Fatal(err)
	}
	excl := graph.NewEdgeSet(held.Len())
	for _, e := range held.Pairs {
		excl.Add(e)
	}
	s, err := build(NewGraphView(train, &excl))
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(4)
	var ns NeighborSample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(int32(rng.Intn(train.NumVertices())), rng, &ns)
	}
}

// BenchmarkLinkPlusUniformSample measures the per-vertex neighbor draw in
// update_phi.
func BenchmarkLinkPlusUniformSample(b *testing.B) {
	neighborBench(b, func(v View) (NeighborStrategy, error) { return NewLinkPlusUniform(v, 32) })
}

// BenchmarkUniformNeighborsSample measures the paper's Eqn (5) variant.
func BenchmarkUniformNeighborsSample(b *testing.B) {
	neighborBench(b, func(v View) (NeighborStrategy, error) { return NewUniformNeighbors(v, 32) })
}
