package sampling

import (
	"fmt"

	"repro/internal/mathx"
)

// NeighborSample is the neighbor set V_n for one minibatch vertex, together
// with a per-node weight such that Σ_b Scale[b]·g_ab is an unbiased estimate
// of Σ_{b≠a} g_ab over the whole vertex set.
type NeighborSample struct {
	Nodes  []int32
	Linked []bool
	Scale  []float64
}

// Reset clears the sample for reuse.
func (s *NeighborSample) Reset() {
	s.Nodes = s.Nodes[:0]
	s.Linked = s.Linked[:0]
	s.Scale = s.Scale[:0]
}

func (s *NeighborSample) add(node int32, linked bool, scale float64) {
	s.Nodes = append(s.Nodes, node)
	s.Linked = append(s.Linked, linked)
	s.Scale = append(s.Scale, scale)
}

// containsFrom reports whether node appears in nodes[start:]. The rejection
// loops below use it as their duplicate check instead of a per-call map: the
// candidate sets are tiny (≈ the neighbor count), so a linear scan beats the
// map on both time and — the point in the update_phi hot loop — allocation.
// The accept/reject decisions are identical to the map's, so the RNG draw
// sequence (and every downstream trajectory) is unchanged.
func containsFrom(nodes []int32, start int, node int32) bool {
	for _, v := range nodes[start:] {
		if v == node {
			return true
		}
	}
	return false
}

// NeighborStrategy draws the neighbor set used by update_phi (Eqn 5).
// Implementations are stateless after construction and safe for concurrent
// Sample calls as long as each goroutine passes its own rng and out.
type NeighborStrategy interface {
	Sample(a int32, rng *mathx.RNG, out *NeighborSample)
	Name() string
}

// UniformNeighbors draws count distinct vertices uniformly from V \ {a},
// skipping held-out pairs, each weighted (candidates)/count. This is the
// strategy written in the paper's Eqn (5) (which states the asymptotically
// equal weight N/|V_n|). A vertex with fewer than count candidates takes
// all of them, each with weight 1.
type UniformNeighbors struct {
	view  View
	count int
}

// NewUniformNeighbors builds the strategy over a View.
func NewUniformNeighbors(view View, count int) (*UniformNeighbors, error) {
	if count < 1 {
		return nil, fmt.Errorf("sampling: neighbor count %d must be positive", count)
	}
	if count >= view.NumVertices() {
		return nil, fmt.Errorf("sampling: neighbor count %d >= N = %d", count, view.NumVertices())
	}
	return &UniformNeighbors{view: view, count: count}, nil
}

// Name implements NeighborStrategy.
func (s *UniformNeighbors) Name() string { return "uniform" }

// Sample implements NeighborStrategy.
func (s *UniformNeighbors) Sample(a int32, rng *mathx.RNG, out *NeighborSample) {
	out.Reset()
	n := s.view.NumVertices()
	// Population size excludes a itself and a's held-out pairs.
	pop := n - 1 - s.view.ExcludedCount(a)
	take := min(s.count, pop)
	w := float64(pop) / float64(take)
	adj := s.view.Neighbors(a)
	for len(out.Nodes) < take {
		b := int32(rng.Intn(n))
		if b == a {
			continue
		}
		if s.view.IsExcluded(a, b) {
			continue
		}
		if containsFrom(out.Nodes, 0, b) {
			continue
		}
		out.add(b, Linked(adj, b), w)
	}
}

// LinkPlusUniform is the lower-variance strategy used by svinet-style
// implementations: the neighbor set is all of a's links (weight 1 each) plus
// count uniformly sampled non-links (weight |nonlinks(a)|/count each). Link
// terms — the informative ones in a sparse graph — are always present, so the
// gradient variance drops by orders of magnitude for low-degree vertices.
type LinkPlusUniform struct {
	view  View
	count int
}

// NewLinkPlusUniform builds the strategy over a View.
func NewLinkPlusUniform(view View, count int) (*LinkPlusUniform, error) {
	if count < 1 {
		return nil, fmt.Errorf("sampling: neighbor count %d must be positive", count)
	}
	if count >= view.NumVertices()/2 {
		return nil, fmt.Errorf("sampling: neighbor count %d too large for N = %d", count, view.NumVertices())
	}
	return &LinkPlusUniform{view: view, count: count}, nil
}

// Name implements NeighborStrategy.
func (s *LinkPlusUniform) Name() string { return "link-plus-uniform" }

// Sample implements NeighborStrategy.
func (s *LinkPlusUniform) Sample(a int32, rng *mathx.RNG, out *NeighborSample) {
	out.Reset()
	n := s.view.NumVertices()
	adj := s.view.Neighbors(a)
	for _, b := range adj {
		out.add(b, true, 1)
	}
	nonlinks := n - 1 - len(adj) - s.view.ExcludedCount(a)
	if nonlinks <= 0 {
		return // vertex linked to everything; nothing to subsample
	}
	take := s.count
	if take > nonlinks {
		take = nonlinks
	}
	w := float64(nonlinks) / float64(take)
	// Duplicates can only collide with other sampled non-links (a candidate
	// that is a link was already rejected), so the scan starts after the
	// link prefix.
	start := len(out.Nodes)
	added := 0
	for added < take {
		b := int32(rng.Intn(n))
		if b == a || Linked(adj, b) {
			continue
		}
		if s.view.IsExcluded(a, b) {
			continue
		}
		if containsFrom(out.Nodes, start, b) {
			continue
		}
		out.add(b, false, w)
		added++
	}
}
