// Package gen produces the synthetic graphs that stand in for the SNAP
// datasets of the paper's Table II. Three generators are provided:
//
//   - Planted: overlapping planted-community graphs with skewed community
//     sizes, the workhorse for the convergence and recovery experiments;
//   - AMMSB: an exact sampler of the a-MMSB generative process (quadratic in
//     N, used by the model-fit tests);
//   - DegreeCorrected: Planted with a power-law degree target per vertex.
//
// All generators are deterministic given a seed.
package gen

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
	"repro/internal/mathx"
)

// ErrVertexRange reports a ground-truth membership naming a vertex outside
// the graph's [0, N) id space — a corrupted or mismatched ground truth.
var ErrVertexRange = errors.New("gen: ground-truth vertex out of range")

// GroundTruth records the planted community structure of a generated graph:
// for each community, the vertices that belong to it. Vertices may appear in
// several communities (overlap) — that is the phenomenon the model detects.
type GroundTruth struct {
	Members [][]int32 // Members[k] lists the vertices of community k
}

// NumCommunities returns the number of planted communities.
func (gt *GroundTruth) NumCommunities() int { return len(gt.Members) }

// MembershipSets returns, per vertex, the set of communities it belongs to.
// A membership outside [0, n) fails with ErrVertexRange naming the vertex
// and community instead of indexing out of bounds.
func (gt *GroundTruth) MembershipSets(n int) ([]map[int]bool, error) {
	out := make([]map[int]bool, n)
	for i := range out {
		out[i] = map[int]bool{}
	}
	for k, members := range gt.Members {
		for _, v := range members {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("%w: community %d lists vertex %d, graph has [0,%d)",
					ErrVertexRange, k, v, n)
			}
			out[v][k] = true
		}
	}
	return out, nil
}

// OverlapFraction returns the fraction of vertices that belong to more than
// one community, rejecting out-of-range memberships like MembershipSets.
func (gt *GroundTruth) OverlapFraction(n int) (float64, error) {
	counts := make([]int, n)
	for k, members := range gt.Members {
		for _, v := range members {
			if v < 0 || int(v) >= n {
				return 0, fmt.Errorf("%w: community %d lists vertex %d, graph has [0,%d)",
					ErrVertexRange, k, v, n)
			}
			counts[v]++
		}
	}
	over := 0
	for _, c := range counts {
		if c > 1 {
			over++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return float64(over) / float64(n), nil
}

// PlantedConfig parameterises the overlapping planted-community generator.
type PlantedConfig struct {
	N              int     // number of vertices
	NumCommunities int     // number of planted communities
	MeanMembership float64 // mean communities per vertex (>= 1); overlap knob
	SizeSkew       float64 // Zipf-ish exponent for community sizes (0 = equal)
	TargetEdges    int     // expected number of edges in the output
	Background     float64 // fraction of edges that are unstructured noise
	Seed           uint64
}

// DefaultPlanted fills in the conventional parameter choices for a graph of
// n vertices and k communities.
func DefaultPlanted(n, k, targetEdges int, seed uint64) PlantedConfig {
	return PlantedConfig{
		N:              n,
		NumCommunities: k,
		MeanMembership: 1.3,
		SizeSkew:       0.8,
		TargetEdges:    targetEdges,
		Background:     0.05,
		Seed:           seed,
	}
}

func (c PlantedConfig) validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("gen: N = %d, need at least 2", c.N)
	case c.NumCommunities < 1:
		return fmt.Errorf("gen: NumCommunities = %d, need at least 1", c.NumCommunities)
	case c.MeanMembership < 1:
		return fmt.Errorf("gen: MeanMembership = %v, need >= 1", c.MeanMembership)
	case c.TargetEdges < 1:
		return fmt.Errorf("gen: TargetEdges = %d, need at least 1", c.TargetEdges)
	case c.Background < 0 || c.Background > 1:
		return fmt.Errorf("gen: Background = %v, need in [0,1]", c.Background)
	}
	return nil
}

// edgeSink receives the generator's edge stream. AddEdge must implement
// graph.Builder semantics exactly — reject self-loops, duplicates, and
// out-of-range endpoints, reporting acceptance — because the rejection-
// sampling loops below consume RNG draws conditioned on those return
// values: two sinks with identical semantics see the identical edge
// sequence for a given seed, which is what makes the streamed output
// byte-equivalent to the in-memory graph.
type edgeSink interface {
	AddEdge(a, b int) bool
}

// Planted generates an undirected graph with overlapping planted communities
// and returns it together with the ground truth. The expected edge count is
// approximately cfg.TargetEdges; the realised count varies binomially.
func Planted(cfg PlantedConfig) (*graph.Graph, *GroundTruth, error) {
	b := graph.NewBuilder(cfg.N)
	gt, err := plantedEdges(cfg, b)
	if err != nil {
		return nil, nil, err
	}
	return b.Finalize(), gt, nil
}

// PlantedStream runs the same generator but emits the accepted edges to w as
// SNAP-format lines under a `# Nodes: <n>` header instead of materialising a
// graph — the exact input graph.OpenEdgeFile consumes. Per-edge state is one
// deduplication set (≈11 bytes/edge); for a given cfg the emitted edge set
// is identical to the graph Planted builds. Returns the ground truth and the
// number of edges written.
func PlantedStream(cfg PlantedConfig, w io.Writer) (*GroundTruth, int, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# planted N=%d K=%d seed=%d\n# Nodes: %d\n",
		cfg.N, cfg.NumCommunities, cfg.Seed, cfg.N); err != nil {
		return nil, 0, err
	}
	sink := &streamEdgeSink{n: cfg.N, set: graph.NewEdgeSet(cfg.TargetEdges), w: bw}
	gt, err := plantedEdges(cfg, sink)
	if err != nil {
		return nil, 0, err
	}
	if sink.err != nil {
		return nil, 0, sink.err
	}
	// Trailing summary comment: readers ignore it, humans and sanity checks
	// get the realised edge count without rescanning.
	if _, err := fmt.Fprintf(bw, "# Edges: %d\n", sink.count); err != nil {
		return nil, 0, err
	}
	if err := bw.Flush(); err != nil {
		return nil, 0, err
	}
	return gt, sink.count, nil
}

// streamEdgeSink mirrors graph.Builder's AddEdge contract while writing each
// accepted edge straight to the output. A write failure is stashed and the
// sink keeps deduplicating so the generator's RNG path stays well-defined;
// PlantedStream surfaces the error at the end.
type streamEdgeSink struct {
	n     int
	set   graph.EdgeSet
	w     *bufio.Writer
	count int
	err   error
}

func (s *streamEdgeSink) AddEdge(a, b int) bool {
	if a == b || a < 0 || b < 0 || a >= s.n || b >= s.n {
		return false
	}
	e := graph.Edge{A: int32(a), B: int32(b)}.Canon()
	if !s.set.Add(e) {
		return false
	}
	s.count++
	if s.err == nil {
		if _, err := fmt.Fprintf(s.w, "%d\t%d\n", e.A, e.B); err != nil {
			s.err = err
		}
	}
	return true
}

// plantedEdges is the generator core shared by Planted and PlantedStream:
// community assignment, per-community edge sampling, background noise.
func plantedEdges(cfg PlantedConfig, b edgeSink) (*GroundTruth, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := mathx.NewRNG(cfg.Seed)

	// Community size weights: w_k ∝ (k+1)^(-skew), normalised so the total
	// number of memberships is N * MeanMembership.
	k := cfg.NumCommunities
	weights := make([]float64, k)
	var wsum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -cfg.SizeSkew)
		wsum += weights[i]
	}
	totalMemberships := float64(cfg.N) * cfg.MeanMembership

	// Assign vertices: every vertex joins one community drawn from the size
	// distribution, then extra memberships are sprinkled until the target
	// total is met. This guarantees no orphan vertices in the ground truth.
	members := make([][]int32, k)
	memberOf := make([]map[int]bool, cfg.N)
	join := func(v, c int) bool {
		if memberOf[v] == nil {
			memberOf[v] = map[int]bool{}
		}
		if memberOf[v][c] {
			return false
		}
		memberOf[v][c] = true
		members[c] = append(members[c], int32(v))
		return true
	}
	for v := 0; v < cfg.N; v++ {
		join(v, rng.Categorical(weights))
	}
	extra := int(totalMemberships) - cfg.N
	for added := 0; added < extra; {
		if join(rng.Intn(cfg.N), rng.Categorical(weights)) {
			added++
		}
	}

	// Edge budgets: intra-community edges proportional to community size,
	// capped by the number of available pairs.
	intraTotal := float64(cfg.TargetEdges) * (1 - cfg.Background)
	var sizeSum float64
	for _, m := range members {
		if len(m) >= 2 {
			sizeSum += float64(len(m))
		}
	}
	for c, m := range members {
		n := len(m)
		if n < 2 || sizeSum == 0 {
			continue
		}
		pairs := float64(n) * float64(n-1) / 2
		budget := intraTotal * float64(n) / sizeSum
		p := budget / pairs
		if p > 0.9 {
			p = 0.9
		}
		sampleCommunityEdges(b, m, p, rng)
		_ = c
	}

	// Background noise edges across the whole graph.
	noise := int(float64(cfg.TargetEdges) * cfg.Background)
	for added := 0; added < noise; {
		a := rng.Intn(cfg.N)
		bb := rng.Intn(cfg.N)
		if a == bb {
			continue
		}
		if b.AddEdge(a, bb) {
			added++
		}
	}

	return &GroundTruth{Members: members}, nil
}

// sampleCommunityEdges adds each of the n·(n-1)/2 pairs inside the community
// independently with probability p. For small p it samples the number of
// edges binomially and picks distinct pairs by rejection, which is O(edges)
// rather than O(pairs).
func sampleCommunityEdges(b edgeSink, m []int32, p float64, rng *mathx.RNG) {
	n := len(m)
	pairs := n * (n - 1) / 2
	if p >= 0.3 {
		// Dense regime: enumerate pairs.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					b.AddEdge(int(m[i]), int(m[j]))
				}
			}
		}
		return
	}
	want := rng.Binomial(pairs, p)
	for added := 0; added < want; {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		if b.AddEdge(int(m[i]), int(m[j])) {
			added++
		} else {
			// Pair already present (possibly from an overlapping community);
			// skip rather than loop forever when the community saturates.
			want--
		}
	}
}
