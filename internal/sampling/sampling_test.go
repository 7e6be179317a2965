package sampling

import (
	"math"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
)

// testGraph builds a small planted graph for the Monte Carlo estimator
// checks.
func testGraph(t *testing.T, n, edges int, seed uint64) *graph.Graph {
	t.Helper()
	g, _, err := gen.Planted(gen.DefaultPlanted(n, 5, edges, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pairFn is an arbitrary deterministic test function over vertex pairs whose
// full-graph sum the minibatch estimators must reproduce in expectation.
func pairFn(e graph.Edge, linked bool) float64 {
	v := float64((int(e.A)*31+int(e.B)*17)%13) + 0.25
	if linked {
		v *= 2.5
	}
	return v
}

// fullPairSum computes Σ over all unordered pairs not excluded.
func fullPairSum(g *graph.Graph, excluded *graph.EdgeSet) float64 {
	n := g.NumVertices()
	var total float64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			e := graph.Edge{A: int32(a), B: int32(b)}
			if excluded != nil && excluded.Contains(e) {
				continue
			}
			total += pairFn(e, g.HasEdge(a, b))
		}
	}
	return total
}

func estimatorMean(s EdgeStrategy, trials int, rng *mathx.RNG) float64 {
	var batch Batch
	var acc float64
	for i := 0; i < trials; i++ {
		s.Sample(rng, &batch)
		var sum float64
		for j, e := range batch.Pairs {
			sum += pairFn(e, batch.Linked[j])
		}
		acc += batch.Scale * sum
	}
	return acc / float64(trials)
}

func TestRandomPairUnbiased(t *testing.T) {
	g := testGraph(t, 60, 300, 1)
	s, err := NewRandomPair(g, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := fullPairSum(g, nil)
	got := estimatorMean(s, 30000, mathx.NewRNG(2))
	if rel := math.Abs(got-want) / want; rel > 0.03 {
		t.Fatalf("random-pair estimator mean %v, full sum %v (rel err %.3f)", got, want, rel)
	}
}

func TestRandomPairUnbiasedWithExclusion(t *testing.T) {
	g := testGraph(t, 60, 300, 3)
	excl := graph.NewEdgeSet(16)
	rng := mathx.NewRNG(4)
	for excl.Len() < 40 {
		excl.Add(graph.Edge{A: int32(rng.Intn(60)), B: int32(rng.Intn(60))})
	}
	s, err := NewRandomPair(g, &excl, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := fullPairSum(g, &excl)
	got := estimatorMean(s, 30000, mathx.NewRNG(5))
	if rel := math.Abs(got-want) / want; rel > 0.03 {
		t.Fatalf("excluded random-pair estimator mean %v, want %v (rel %.3f)", got, want, rel)
	}
	// No excluded pair may ever be emitted.
	var batch Batch
	for i := 0; i < 200; i++ {
		s.Sample(rng, &batch)
		for _, e := range batch.Pairs {
			if excl.Contains(e) {
				t.Fatalf("excluded pair %v sampled", e)
			}
		}
	}
}

func TestStratifiedNodeUnbiased(t *testing.T) {
	g := testGraph(t, 60, 300, 6)
	s, err := NewStratifiedNode(g, nil, 0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := fullPairSum(g, nil)
	got := estimatorMean(s, 60000, mathx.NewRNG(7))
	if rel := math.Abs(got-want) / want; rel > 0.04 {
		t.Fatalf("stratified estimator mean %v, full sum %v (rel err %.3f)", got, want, rel)
	}
}

func TestStratifiedNodeLinkBatchesAreLinkSets(t *testing.T) {
	g := testGraph(t, 80, 400, 8)
	s, err := NewStratifiedNode(g, nil, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(9)
	var batch Batch
	sawLink, sawNonLink := false, false
	for i := 0; i < 300; i++ {
		s.Sample(rng, &batch)
		if len(batch.Pairs) == 0 {
			t.Fatal("empty minibatch")
		}
		allLinked := true
		for _, l := range batch.Linked {
			allLinked = allLinked && l
		}
		if allLinked {
			sawLink = true
			// Link batches must be exactly one vertex's full link set.
			base := int32(-1)
			counts := map[int32]int{}
			for _, e := range batch.Pairs {
				counts[e.A]++
				counts[e.B]++
			}
			for v, c := range counts {
				if c == len(batch.Pairs) {
					base = v
				}
			}
			if len(batch.Pairs) > 1 && base == -1 {
				t.Fatal("link batch does not share a common vertex")
			}
			if base >= 0 && len(batch.Pairs) != g.Degree(int(base)) {
				t.Fatalf("link batch size %d != degree %d", len(batch.Pairs), g.Degree(int(base)))
			}
		} else {
			sawNonLink = true
			for j, l := range batch.Linked {
				if l {
					t.Fatalf("non-link batch contains linked pair %v", batch.Pairs[j])
				}
			}
			if len(batch.Pairs) != 5 {
				t.Fatalf("non-link batch size %d, want 5", len(batch.Pairs))
			}
		}
	}
	if !sawLink || !sawNonLink {
		t.Fatal("stratified sampler never produced one of the strata")
	}
}

func TestBatchNodesAreDistinctEndpoints(t *testing.T) {
	g := testGraph(t, 50, 200, 10)
	s, err := NewRandomPair(g, nil, 15)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(11)
	var batch Batch
	for i := 0; i < 50; i++ {
		s.Sample(rng, &batch)
		want := map[int32]bool{}
		for _, e := range batch.Pairs {
			want[e.A] = true
			want[e.B] = true
		}
		if len(batch.Nodes) != len(want) {
			t.Fatalf("Nodes has %d entries, want %d distinct", len(batch.Nodes), len(want))
		}
		seen := map[int32]bool{}
		for _, v := range batch.Nodes {
			if seen[v] || !want[v] {
				t.Fatalf("Nodes contains duplicate or foreign vertex %d", v)
			}
			seen[v] = true
		}
	}
}

func TestEdgeStrategyValidation(t *testing.T) {
	g := testGraph(t, 30, 100, 12)
	if _, err := NewRandomPair(g, nil, 0); err == nil {
		t.Fatal("zero minibatch accepted")
	}
	if _, err := NewRandomPair(g, nil, 10000); err == nil {
		t.Fatal("oversized minibatch accepted")
	}
	if _, err := NewStratifiedNode(g, nil, 0, 5); err == nil {
		t.Fatal("linkProb 0 accepted")
	}
	if _, err := NewStratifiedNode(g, nil, 1, 5); err == nil {
		t.Fatal("linkProb 1 accepted")
	}
	if _, err := NewStratifiedNode(g, nil, 0.5, 0); err == nil {
		t.Fatal("zero non-link count accepted")
	}
	if _, err := NewStratifiedNode(g, nil, 0.5, 20); err == nil {
		t.Fatal("huge non-link count accepted")
	}
}

// neighborFn is the per-node test function for the neighbor estimators.
func neighborFn(b int32, linked bool) float64 {
	v := float64(int(b)%11) + 0.5
	if linked {
		v *= 3
	}
	return v
}

func fullNeighborSum(g *graph.Graph, a int32, excluded *graph.EdgeSet) float64 {
	var total float64
	for b := 0; b < g.NumVertices(); b++ {
		if int32(b) == a {
			continue
		}
		if excluded != nil && excluded.Contains(graph.Edge{A: a, B: int32(b)}) {
			continue
		}
		total += neighborFn(int32(b), g.HasEdge(int(a), b))
	}
	return total
}

func neighborEstimatorMean(s NeighborStrategy, a int32, trials int, rng *mathx.RNG) float64 {
	var ns NeighborSample
	var acc float64
	for i := 0; i < trials; i++ {
		s.Sample(a, rng, &ns)
		var sum float64
		for j, b := range ns.Nodes {
			sum += ns.Scale[j] * neighborFn(b, ns.Linked[j])
		}
		acc += sum
	}
	return acc / float64(trials)
}

func TestUniformNeighborsUnbiased(t *testing.T) {
	g := testGraph(t, 80, 400, 13)
	s, err := NewUniformNeighbors(NewGraphView(g, nil), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []int32{0, 17, 42} {
		want := fullNeighborSum(g, a, nil)
		got := neighborEstimatorMean(s, a, 20000, mathx.NewRNG(uint64(100+a)))
		if rel := math.Abs(got-want) / want; rel > 0.03 {
			t.Fatalf("uniform neighbors a=%d: mean %v, want %v (rel %.3f)", a, got, want, rel)
		}
	}
}

func TestLinkPlusUniformUnbiased(t *testing.T) {
	g := testGraph(t, 80, 400, 14)
	s, err := NewLinkPlusUniform(NewGraphView(g, nil), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []int32{1, 23, 55} {
		want := fullNeighborSum(g, a, nil)
		got := neighborEstimatorMean(s, a, 20000, mathx.NewRNG(uint64(200+a)))
		if rel := math.Abs(got-want) / want; rel > 0.03 {
			t.Fatalf("link+uniform a=%d: mean %v, want %v (rel %.3f)", a, got, want, rel)
		}
	}
}

func TestLinkPlusUniformAlwaysIncludesLinks(t *testing.T) {
	g := testGraph(t, 60, 250, 15)
	s, err := NewLinkPlusUniform(NewGraphView(g, nil), 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(16)
	var ns NeighborSample
	a := int32(0)
	deg := g.Degree(0)
	for i := 0; i < 100; i++ {
		s.Sample(a, rng, &ns)
		links := 0
		for j, b := range ns.Nodes {
			if ns.Linked[j] {
				links++
				if !g.HasEdge(0, int(b)) {
					t.Fatal("node marked linked but edge absent")
				}
				if ns.Scale[j] != 1 {
					t.Fatalf("link weight = %v, want 1", ns.Scale[j])
				}
			}
		}
		if links != deg {
			t.Fatalf("sample carries %d links, vertex has degree %d", links, deg)
		}
	}
}

func TestLinkPlusUniformVarianceLower(t *testing.T) {
	// The whole point of link+uniform: the per-sample estimator variance is
	// far below uniform sampling on a sparse graph.
	g := testGraph(t, 200, 800, 17)
	uni, err := NewUniformNeighbors(NewGraphView(g, nil), 12)
	if err != nil {
		t.Fatal(err)
	}
	lpu, err := NewLinkPlusUniform(NewGraphView(g, nil), 12)
	if err != nil {
		t.Fatal(err)
	}
	variance := func(s NeighborStrategy, seed uint64) float64 {
		rng := mathx.NewRNG(seed)
		var ns NeighborSample
		var w mathx.Welford
		for i := 0; i < 4000; i++ {
			s.Sample(5, rng, &ns)
			var sum float64
			for j, b := range ns.Nodes {
				sum += ns.Scale[j] * neighborFn(b, ns.Linked[j])
			}
			w.Add(sum)
		}
		return w.Var()
	}
	vu := variance(uni, 18)
	vl := variance(lpu, 19)
	if vl >= vu {
		t.Fatalf("link+uniform variance %v not below uniform %v", vl, vu)
	}
}

func TestNeighborValidation(t *testing.T) {
	g := testGraph(t, 30, 100, 20)
	view := NewGraphView(g, nil)
	if _, err := NewUniformNeighbors(view, 0); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := NewUniformNeighbors(view, 30); err == nil {
		t.Fatal("count >= N accepted")
	}
	if _, err := NewLinkPlusUniform(view, 0); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := NewLinkPlusUniform(view, 16); err == nil {
		t.Fatal("count >= N/2 accepted")
	}
}

func TestNeighborSampleNoDuplicates(t *testing.T) {
	g := testGraph(t, 100, 400, 21)
	for _, s := range []NeighborStrategy{
		mustUniform(t, g, 15), mustLPU(t, g, 15),
	} {
		rng := mathx.NewRNG(22)
		var ns NeighborSample
		for i := 0; i < 100; i++ {
			s.Sample(7, rng, &ns)
			seen := map[int32]bool{}
			for _, b := range ns.Nodes {
				if b == 7 {
					t.Fatalf("%s: vertex sampled itself", s.Name())
				}
				if seen[b] {
					t.Fatalf("%s: duplicate neighbor %d", s.Name(), b)
				}
				seen[b] = true
			}
		}
	}
}

func mustUniform(t *testing.T, g *graph.Graph, c int) NeighborStrategy {
	t.Helper()
	s, err := NewUniformNeighbors(NewGraphView(g, nil), c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustLPU(t *testing.T, g *graph.Graph, c int) NeighborStrategy {
	t.Helper()
	s, err := NewLinkPlusUniform(NewGraphView(g, nil), c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mapDupReference replays a strategy's rejection loop with the map-based
// duplicate check the linear-scan version replaced, and with the link test
// asked of the whole graph's edge hash (graph.HasEdge) instead of the
// vertex's adjacency row (Linked). The accept/reject decisions must be
// identical, so from the same RNG stream both produce the same sample —
// which pins that neither rewrite perturbed any RNG draw sequence (and
// therefore no trained trajectory).
func mapDupUniformReference(s *UniformNeighbors, g *graph.Graph, a int32, rng *mathx.RNG, out *NeighborSample) {
	out.Reset()
	n := s.view.NumVertices()
	seen := map[int32]struct{}{}
	pop := n - 1 - s.view.ExcludedCount(a)
	take := min(s.count, pop)
	w := float64(pop) / float64(take)
	for len(out.Nodes) < take {
		b := int32(rng.Intn(n))
		if b == a || s.view.IsExcluded(a, b) {
			continue
		}
		if _, dup := seen[b]; dup {
			continue
		}
		seen[b] = struct{}{}
		out.add(b, g.HasEdge(int(a), int(b)), w)
	}
}

func mapDupLPUReference(s *LinkPlusUniform, g *graph.Graph, a int32, rng *mathx.RNG, out *NeighborSample) {
	out.Reset()
	n := s.view.NumVertices()
	for _, b := range g.Neighbors(int(a)) {
		out.add(b, true, 1)
	}
	deg := g.Degree(int(a))
	nonlinks := n - 1 - deg - s.view.ExcludedCount(a)
	if nonlinks <= 0 {
		return
	}
	take := s.count
	if take > nonlinks {
		take = nonlinks
	}
	w := float64(nonlinks) / float64(take)
	seen := map[int32]struct{}{}
	added := 0
	for added < take {
		b := int32(rng.Intn(n))
		if b == a || g.HasEdge(int(a), int(b)) || s.view.IsExcluded(a, b) {
			continue
		}
		if _, dup := seen[b]; dup {
			continue
		}
		seen[b] = struct{}{}
		out.add(b, false, w)
		added++
	}
}

func sameSample(a, b *NeighborSample) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] || a.Linked[i] != b.Linked[i] || a.Scale[i] != b.Scale[i] {
			return false
		}
	}
	return true
}

func TestNeighborSampleMatchesMapReference(t *testing.T) {
	g := testGraph(t, 200, 900, 11)
	uni, err := NewUniformNeighbors(NewGraphView(g, nil), 24)
	if err != nil {
		t.Fatal(err)
	}
	lpu, err := NewLinkPlusUniform(NewGraphView(g, nil), 24)
	if err != nil {
		t.Fatal(err)
	}
	var got, want NeighborSample
	for a := int32(0); a < 200; a += 7 {
		uni.Sample(a, mathx.NewStream(5, uint64(a)), &got)
		mapDupUniformReference(uni, g, a, mathx.NewStream(5, uint64(a)), &want)
		if !sameSample(&got, &want) {
			t.Fatalf("uniform: vertex %d diverged from map-based reference", a)
		}
		lpu.Sample(a, mathx.NewStream(5, uint64(a)), &got)
		mapDupLPUReference(lpu, g, a, mathx.NewStream(5, uint64(a)), &want)
		if !sameSample(&got, &want) {
			t.Fatalf("link-plus-uniform: vertex %d diverged from map-based reference", a)
		}
	}
}

// TestUniformNeighborsFewCandidatesReturns: a vertex with fewer eligible
// candidates than count takes all of them at weight 1. The draw used to wait
// for count distinct nodes that did not exist, and never returned.
func TestUniformNeighborsFewCandidatesReturns(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	g := b.Finalize()
	for _, tc := range []struct {
		held []int32 // vertices held out against vertex 0
		want []int32 // vertex 0's eligible candidates
	}{
		{held: []int32{2, 3}, want: []int32{1, 4, 5}},
		{held: []int32{1, 2, 3, 4, 5}, want: nil},
	} {
		excl := graph.NewEdgeSet(len(tc.held))
		for _, v := range tc.held {
			excl.Add(graph.Edge{A: 0, B: v})
		}
		s, err := NewUniformNeighbors(NewGraphView(g, &excl), 4)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *NeighborSample, 1)
		go func() {
			var ns NeighborSample
			s.Sample(0, mathx.NewRNG(1), &ns)
			done <- &ns
		}()
		var ns *NeighborSample
		select {
		case ns = <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("held %v: Sample did not return within 2 s with %d candidates for count 4", tc.held, len(tc.want))
		}
		if len(ns.Nodes) != len(tc.want) {
			t.Fatalf("held %v: sampled %v, want all of %v", tc.held, ns.Nodes, tc.want)
		}
		for j, v := range ns.Nodes {
			if !containsFrom(tc.want, 0, v) || ns.Scale[j] != 1 || ns.Linked[j] != (v == 1) {
				t.Fatalf("held %v: node %d linked=%v weight %v; want a candidate of %v, weight 1", tc.held, v, ns.Linked[j], ns.Scale[j], tc.want)
			}
		}
	}
}

// TestLinkedMatchesHasEdge holds the strategies' adjacency-row link test to
// the graph's edge hash on random graphs, covering degree-0 vertices, b = a,
// ids outside every row, and b at the first and last adjacency slot.
func TestLinkedMatchesHasEdge(t *testing.T) {
	rng := mathx.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for m := rng.Intn(3 * n); m > 0; m-- {
			// Vertex n-1 gets no edge, so every graph has a degree-0 vertex.
			b.AddEdge(rng.Intn(n-1), rng.Intn(n-1))
		}
		g := b.Finalize()
		for a := 0; a < n; a++ {
			adj := g.Neighbors(a)
			for c := -1; c <= n; c++ {
				want := c >= 0 && c < n && g.HasEdge(a, c)
				if got := Linked(adj, int32(c)); got != want {
					t.Fatalf("trial %d: Linked(adj[%d]=%v, %d) = %v, graph.HasEdge = %v", trial, a, adj, c, got, want)
				}
			}
			if len(adj) > 0 && !(Linked(adj, adj[0]) && Linked(adj, adj[len(adj)-1])) {
				t.Fatalf("trial %d: first or last slot of adj[%d]=%v not found", trial, a, adj)
			}
		}
	}
}
