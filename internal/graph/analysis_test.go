package graph

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

func TestConnectedComponents(t *testing.T) {
	// Two triangles plus an isolated vertex: 3 components.
	g := FromEdges(7, []Edge{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	labels, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("first triangle split")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatal("second triangle split")
	}
	if labels[0] == labels[3] || labels[6] == labels[0] || labels[6] == labels[3] {
		t.Fatal("components merged")
	}
	if LargestComponentSize(g) != 3 {
		t.Fatalf("largest = %d, want 3", LargestComponentSize(g))
	}
}

func TestConnectedComponentsRing(t *testing.T) {
	g := ring(50)
	if _, count := ConnectedComponents(g); count != 1 {
		t.Fatalf("ring has %d components", count)
	}
	if LargestComponentSize(g) != 50 {
		t.Fatal("ring largest component wrong")
	}
}

func TestConnectedComponentsEmpty(t *testing.T) {
	g := NewBuilder(4).Finalize()
	if _, count := ConnectedComponents(g); count != 4 {
		t.Fatalf("edgeless graph: %d components, want 4", count)
	}
	empty := NewBuilder(0).Finalize()
	if LargestComponentSize(empty) != 0 {
		t.Fatal("empty graph largest component should be 0")
	}
}

func TestClusteringCoefficientExtremes(t *testing.T) {
	rng := mathx.NewRNG(1)
	// Triangle: coefficient 1.
	if c := ClusteringCoefficient(triangle(), 0, rng); math.Abs(c-1) > 1e-12 {
		t.Fatalf("triangle coefficient = %v, want 1", c)
	}
	// Star: no closed wedges, coefficient 0.
	star := FromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if c := ClusteringCoefficient(star, 0, rng); c != 0 {
		t.Fatalf("star coefficient = %v, want 0", c)
	}
	// Ring: degree-2 vertices with unlinked neighbors, coefficient 0.
	if c := ClusteringCoefficient(ring(20), 0, rng); c != 0 {
		t.Fatalf("ring coefficient = %v, want 0", c)
	}
}

func TestClusteringCoefficientSampledApproximatesExact(t *testing.T) {
	rng := mathx.NewRNG(2)
	b := NewBuilder(300)
	// Community-ish random graph with plenty of triangles.
	for i := 0; i < 300; i++ {
		for j := 1; j <= 5; j++ {
			b.AddEdge(i, (i+j)%300)
		}
	}
	g := b.Finalize()
	exact := ClusteringCoefficient(g, 0, rng)
	sampled := ClusteringCoefficient(g, 100, rng)
	if exact <= 0 {
		t.Fatal("band graph should have triangles")
	}
	if math.Abs(sampled-exact) > 0.25*exact+0.02 {
		t.Fatalf("sampled %v too far from exact %v", sampled, exact)
	}
}
