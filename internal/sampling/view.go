package sampling

import (
	"slices"

	"repro/internal/graph"
)

// View is the read interface the neighbor strategies need about a vertex's
// surroundings. The single-node engine backs it with the full graph; the
// distributed engine backs it with the per-vertex adjacency data the master
// scatters along with the minibatch (Section III-A: workers receive only the
// subset of E touched by the minibatch vertices).
//
// Both implementations must answer identically for the vertices they are
// asked about — the strategies consume randomness based on these answers, so
// agreement here is what makes the two engines produce bit-identical chains.
type View interface {
	// NumVertices returns N.
	NumVertices() int
	// Neighbors returns a's sorted training-graph adjacency list (not
	// modified by callers). Only queried with a equal to a vertex the View
	// was built for.
	Neighbors(a int32) []int32
	// IsExcluded reports whether (a, b) is a held-out pair.
	IsExcluded(a, b int32) bool
	// ExcludedCount returns how many held-out pairs touch a.
	ExcludedCount(a int32) int
}

// GraphView adapts a full graph plus an optional held-out exclusion set to
// the View interface.
type GraphView struct {
	g         *graph.Graph
	excluded  *graph.EdgeSet
	heldTouch []int32
}

// NewGraphView builds a View over g. excluded may be nil.
func NewGraphView(g *graph.Graph, excluded *graph.EdgeSet) *GraphView {
	v := &GraphView{g: g, excluded: excluded, heldTouch: make([]int32, g.NumVertices())}
	if excluded != nil {
		excluded.Each(func(e graph.Edge) {
			v.heldTouch[e.A]++
			v.heldTouch[e.B]++
		})
	}
	return v
}

// NumVertices implements View.
func (v *GraphView) NumVertices() int { return v.g.NumVertices() }

// Neighbors implements View.
func (v *GraphView) Neighbors(a int32) []int32 { return v.g.Neighbors(int(a)) }

// IsExcluded implements View.
func (v *GraphView) IsExcluded(a, b int32) bool {
	return v.excluded != nil && v.excluded.Contains(graph.Edge{A: a, B: b})
}

// ExcludedCount implements View.
func (v *GraphView) ExcludedCount(a int32) int { return int(v.heldTouch[a]) }

// Linked reports whether b is in adj, a vertex's sorted adjacency list: the
// strategies' training-link test. It searches only the row the strategy
// already holds, never the whole graph's edge hash, so it stays in cache and
// answers identically on the master's graph and a worker's scattered rows.
func Linked(adj []int32, b int32) bool {
	_, ok := slices.BinarySearch(adj, b)
	return ok
}
