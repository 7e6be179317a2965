package graph

import (
	"testing"

	"repro/internal/mathx"
)

// ring builds a cycle graph of n vertices, a convenient sparse test fixture.
func ring(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Finalize()
}

func TestSplitBasics(t *testing.T) {
	g := ring(100)
	rng := mathx.NewRNG(1)
	train, held, err := Split(g, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumEdges() != 90 {
		t.Fatalf("training edges = %d, want 90", train.NumEdges())
	}
	if held.Len() != 20 {
		t.Fatalf("held-out size = %d, want 20", held.Len())
	}
	if held.NumLinks() != 10 {
		t.Fatalf("held-out links = %d, want 10", held.NumLinks())
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every held-out link must be absent from training and present in the
	// original; every held-out non-link absent from both.
	for i, e := range held.Pairs {
		if train.HasEdge(int(e.A), int(e.B)) {
			t.Fatalf("held-out pair %v still in training graph", e)
		}
		if held.Linked[i] != g.HasEdge(int(e.A), int(e.B)) {
			t.Fatalf("held-out label for %v contradicts original graph", e)
		}
	}
}

func TestSplitNoDuplicatePairs(t *testing.T) {
	g := ring(200)
	rng := mathx.NewRNG(2)
	_, held, err := Split(g, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, e := range held.Pairs {
		if seen[e.Key()] {
			t.Fatalf("duplicate held-out pair %v", e)
		}
		seen[e.Key()] = true
	}
}

func TestSplitRejectsBadSizes(t *testing.T) {
	g := ring(10)
	rng := mathx.NewRNG(3)
	if _, _, err := Split(g, 0, rng); err == nil {
		t.Fatal("Split accepted zero size")
	}
	if _, _, err := Split(g, 10, rng); err == nil {
		t.Fatal("Split accepted holding out every edge")
	}
	dense := triangle()
	if _, _, err := Split(dense, 1, rng); err == nil {
		t.Fatal("Split accepted an over-dense graph")
	}
}

func TestSplitDeterminism(t *testing.T) {
	g := ring(100)
	_, h1, err := Split(g, 10, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	_, h2, err := Split(g, 10, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1.Pairs {
		if h1.Pairs[i] != h2.Pairs[i] || h1.Linked[i] != h2.Linked[i] {
			t.Fatal("Split not deterministic under fixed seed")
		}
	}
}
