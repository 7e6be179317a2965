package graph

import "repro/internal/mathx"

// ConnectedComponents labels every vertex with its component id (ids are
// dense, assigned in discovery order) and returns the labels plus the
// component count. Iterative BFS; O(N + E).
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for start := 0; start < n; start++ {
		if labels[start] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[start] = id
		queue = append(queue[:0], int32(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(int(v)) {
				if labels[w] < 0 {
					labels[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return labels, count
}

// LargestComponentSize returns the vertex count of the biggest connected
// component (0 for an empty graph).
func LargestComponentSize(g *Graph) int {
	labels, count := ConnectedComponents(g)
	if count == 0 {
		return 0
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return best
}

// ClusteringCoefficient estimates the mean local clustering coefficient by
// sampling `samples` random vertices (all vertices if samples <= 0 or
// >= N). For each sampled vertex it counts closed wedges among its
// neighbors. Exact for small graphs, cheap and unbiased for large ones —
// the triangle density is a key difference between the social graphs of
// Table II and unstructured noise.
func ClusteringCoefficient(g *Graph, samples int, rng *mathx.RNG) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	var vertices []int
	if samples <= 0 || samples >= n {
		vertices = make([]int, n)
		for i := range vertices {
			vertices[i] = i
		}
	} else {
		seen := map[int]struct{}{}
		for len(vertices) < samples {
			v := rng.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			vertices = append(vertices, v)
		}
	}
	var total float64
	counted := 0
	for _, v := range vertices {
		neigh := g.Neighbors(v)
		d := len(neigh)
		if d < 2 {
			continue
		}
		counted++
		closed := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(int(neigh[i]), int(neigh[j])) {
					closed++
				}
			}
		}
		total += 2 * float64(closed) / (float64(d) * float64(d-1))
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
