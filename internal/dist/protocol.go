// Package dist implements the master–worker distributed engine of Section
// III: rank 0 samples edge minibatches from the full graph (which only it
// holds) and scatters each rank's share of the minibatch vertices together
// with their adjacency lists; all ranks cooperate in update_phi/update_pi
// against the π rows stored in the DKV store, in the θ/β update through a
// chunk-ordered gather, and in the distributed perplexity evaluation.
//
// The engine is written so that, run with the same seeds, it reproduces the
// single-node core.Sampler bit for bit: identical RNG streams per (iteration,
// vertex), identical float32 storage precision, and identical floating-point
// fold orders (rank partitions are aligned to the same fixed chunk sizes the
// sequential engine reduces with).
package dist

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/sampling"
	"repro/internal/wire"
)

// The π-row wire codec (rowBytes / encodeRow / decodeRow) lives in
// internal/store, next to the PiStore backends that speak it; this file
// keeps only the minibatch deployment protocol, which is dist-specific.

// deployment is one rank's share of an iteration's minibatch.
type deployment struct {
	iter  int
	nodes []int32   // minibatch vertices this rank updates
	adj   [][]int32 // adjacency list per node (training links)
	pairs []graph.Edge
	link  []bool
	scale float64 // h(E_n)
	// chunkLo is the global index of this rank's first θ-gradient chunk;
	// the rank owns pairs [chunkLo*ThetaChunk - pairBase ...] relative to
	// the full batch, but only needs its own slice and the chunk count.
	chunkLo int
}

// encodeDeployment serialises a deployment for the scatter.
func encodeDeployment(d *deployment) []byte {
	size := 4 + 4
	for _, a := range d.adj {
		size += 4 + 4 + 4*len(a)
	}
	size += 4 + len(d.pairs)*8 + len(d.link) + 8 + 4
	buf := make([]byte, 0, size)
	buf = wire.AppendUint32(buf, uint32(d.iter))
	buf = wire.AppendUint32(buf, uint32(len(d.nodes)))
	for i, n := range d.nodes {
		buf = wire.AppendUint32(buf, uint32(n))
		buf = wire.AppendUint32(buf, uint32(len(d.adj[i])))
		buf = wire.AppendInt32s(buf, d.adj[i])
	}
	buf = wire.AppendUint32(buf, uint32(len(d.pairs)))
	for _, e := range d.pairs {
		buf = wire.AppendUint32(buf, uint32(e.A))
		buf = wire.AppendUint32(buf, uint32(e.B))
	}
	buf = wire.AppendBools(buf, d.link)
	buf = wire.AppendUint64(buf, math.Float64bits(d.scale))
	buf = wire.AppendUint32(buf, uint32(d.chunkLo))
	return buf
}

// decodeDeployment parses a scattered deployment.
func decodeDeployment(buf []byte) (*deployment, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("dist: deployment too short (%d bytes)", len(buf))
	}
	d := &deployment{}
	off := 0
	d.iter = int(wire.Uint32At(buf, off))
	off += 4
	nNodes := int(wire.Uint32At(buf, off))
	off += 4
	d.nodes = make([]int32, nNodes)
	d.adj = make([][]int32, nNodes)
	for i := 0; i < nNodes; i++ {
		d.nodes[i] = int32(wire.Uint32At(buf, off))
		off += 4
		deg := int(wire.Uint32At(buf, off))
		off += 4
		d.adj[i] = make([]int32, deg)
		off = wire.Int32s(buf, off, deg, d.adj[i])
	}
	nPairs := int(wire.Uint32At(buf, off))
	off += 4
	d.pairs = make([]graph.Edge, nPairs)
	for i := 0; i < nPairs; i++ {
		d.pairs[i].A = int32(wire.Uint32At(buf, off))
		d.pairs[i].B = int32(wire.Uint32At(buf, off+4))
		off += 8
	}
	d.link = make([]bool, nPairs)
	off = wire.Bools(buf, off, nPairs, d.link)
	d.scale = math.Float64frombits(wire.Uint64At(buf, off))
	off += 8
	d.chunkLo = int(wire.Uint32At(buf, off))
	return d, nil
}

// workerView implements sampling.View from a deployment's scattered
// adjacency. It answers exactly like the master's GraphView for the vertices
// it carries, which keeps the RNG consumption of the neighbor strategies
// identical across engines.
type workerView struct {
	n         int
	adj       map[int32][]int32
	heldSet   *graph.EdgeSet
	heldTouch []int32
}

func newWorkerView(n int, heldSet *graph.EdgeSet, heldTouch []int32) *workerView {
	return &workerView{n: n, adj: map[int32][]int32{}, heldSet: heldSet, heldTouch: heldTouch}
}

// load replaces the view's adjacency with a deployment's.
func (v *workerView) load(d *deployment) {
	for k := range v.adj {
		delete(v.adj, k)
	}
	for i, node := range d.nodes {
		v.adj[node] = d.adj[i]
	}
}

// NumVertices implements sampling.View.
func (v *workerView) NumVertices() int { return v.n }

// Neighbors implements sampling.View.
func (v *workerView) Neighbors(a int32) []int32 { return v.adj[a] }

// IsExcluded implements sampling.View.
func (v *workerView) IsExcluded(a, b int32) bool {
	return v.heldSet != nil && v.heldSet.Contains(graph.Edge{A: a, B: b})
}

// ExcludedCount implements sampling.View.
func (v *workerView) ExcludedCount(a int32) int {
	if v.heldTouch == nil {
		return 0
	}
	return int(v.heldTouch[a])
}

// interface conformance check
var _ sampling.View = (*workerView)(nil)
