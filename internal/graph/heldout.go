package graph

import (
	"fmt"

	"repro/internal/mathx"
)

// HeldOut is the evaluation split: a balanced set of linked and non-linked
// vertex pairs removed from training, exactly as the perplexity metric of
// Eqn (7) requires. Pairs carries the edges; Linked[i] is the observation
// y for Pairs[i].
//
// The paper statically partitions the held-out set across machines for the
// parallel perplexity computation; Slice supports that partitioning.
type HeldOut struct {
	Pairs  []Edge
	Linked []bool
}

// Len returns the number of held-out pairs.
func (h *HeldOut) Len() int { return len(h.Pairs) }

// NumLinks returns how many held-out pairs are linked edges.
func (h *HeldOut) NumLinks() int {
	n := 0
	for _, l := range h.Linked {
		if l {
			n++
		}
	}
	return n
}

// Split removes a held-out set from g: numLinks random linked edges plus an
// equal number of random non-linked pairs. It returns the training graph
// (original minus held-out links) and the held-out set. The held-out links
// are excluded from training y_ab observations simply by removal; held-out
// non-links are, like all non-links, not represented explicitly.
//
// Split fails if the graph has fewer than numLinks+1 edges or is too dense to
// find non-links by rejection.
func Split(g *Graph, numLinks int, rng *mathx.RNG) (*Graph, *HeldOut, error) {
	if numLinks <= 0 {
		return nil, nil, fmt.Errorf("graph: held-out size %d must be positive", numLinks)
	}
	if numLinks >= g.NumEdges() {
		return nil, nil, fmt.Errorf("graph: held-out size %d >= edge count %d", numLinks, g.NumEdges())
	}
	if g.Density() > 0.5 {
		return nil, nil, fmt.Errorf("graph: density %.2f too high for rejection sampling of non-links", g.Density())
	}

	edges := g.EdgeList()
	// Partial Fisher-Yates: choose numLinks random edges to hold out.
	for i := 0; i < numLinks; i++ {
		j := i + rng.Intn(len(edges)-i)
		edges[i], edges[j] = edges[j], edges[i]
	}
	held := &HeldOut{
		Pairs:  make([]Edge, 0, 2*numLinks),
		Linked: make([]bool, 0, 2*numLinks),
	}
	heldSet := NewEdgeSet(2 * numLinks)
	for _, e := range edges[:numLinks] {
		held.Pairs = append(held.Pairs, e)
		held.Linked = append(held.Linked, true)
		heldSet.Add(e)
	}

	// Sample non-links by rejection: uniform pairs that are neither linked
	// nor already held out.
	n := g.NumVertices()
	for len(held.Pairs) < 2*numLinks {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a == b {
			continue
		}
		e := Edge{int32(a), int32(b)}.Canon()
		if g.edges.Contains(e) || !heldSet.Add(e) {
			continue
		}
		held.Pairs = append(held.Pairs, e)
		held.Linked = append(held.Linked, false)
	}

	// Build the training graph without the held-out links.
	b := NewBuilder(n)
	for _, e := range edges[numLinks:] {
		b.AddEdge(int(e.A), int(e.B))
	}
	train := b.Finalize()
	return train, held, nil
}
