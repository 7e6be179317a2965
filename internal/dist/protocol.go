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

// DeploymentError reports a scattered deployment frame that does not parse:
// the frame ends inside a field, a count promises more entries than the
// bytes left could hold, or bytes trail the last field. The receiving rank
// returns it from the deploy stage, which aborts the mesh naming that rank.
type DeploymentError struct {
	Field string // the field that does not fit
	Off   int    // its byte offset in the frame
	Len   int    // the frame length
}

func (e *DeploymentError) Error() string {
	return fmt.Sprintf("dist: corrupt %d-byte deployment: %s at byte %d", e.Len, e.Field, e.Off)
}

// deploymentReader reads a deployment frame front to back. Every field and
// every count is checked against the bytes left before it is read or
// allocated, so a hostile count cannot make the reader allocate more than
// the frame could describe. The first failure sticks; later reads return 0.
type deploymentReader struct {
	buf []byte
	off int
	err error
}

// fits reports whether n more bytes of field remain, recording the failure
// if not.
func (r *deploymentReader) fits(field string, n uint64) bool {
	if r.err == nil && n > uint64(len(r.buf)-r.off) {
		r.err = &DeploymentError{Field: field, Off: r.off, Len: len(r.buf)}
	}
	return r.err == nil
}

func (r *deploymentReader) u32(field string) uint32 {
	if !r.fits(field, 4) {
		return 0
	}
	v := wire.Uint32At(r.buf, r.off)
	r.off += 4
	return v
}

// count reads an entry count and checks that that many entries of at least
// size bytes each fit in the rest of the frame.
func (r *deploymentReader) count(field string, size uint64) int {
	n := r.u32(field)
	if !r.fits(field, uint64(n)*size) {
		return 0
	}
	return int(n)
}

// decodeDeployment parses a scattered deployment; a frame that does not
// parse is a *DeploymentError.
func decodeDeployment(buf []byte) (*deployment, error) {
	r := &deploymentReader{buf: buf}
	d := &deployment{iter: int(r.u32("iteration"))}
	nNodes := r.count("node count", 8) // a node id and a degree each
	d.nodes = make([]int32, nNodes)
	d.adj = make([][]int32, nNodes)
	for i := 0; i < nNodes && r.err == nil; i++ {
		d.nodes[i] = int32(r.u32("node id"))
		deg := r.count("adjacency", 4)
		d.adj[i] = make([]int32, deg)
		r.off = wire.Int32s(buf, r.off, deg, d.adj[i])
	}
	nPairs := r.count("pair count", 9) // two vertex ids and a link flag each
	d.pairs = make([]graph.Edge, nPairs)
	for i := range d.pairs {
		d.pairs[i].A = int32(wire.Uint32At(buf, r.off))
		d.pairs[i].B = int32(wire.Uint32At(buf, r.off+4))
		r.off += 8
	}
	d.link = make([]bool, nPairs)
	r.off = wire.Bools(buf, r.off, nPairs, d.link)
	if r.fits("scale", 8) {
		d.scale = math.Float64frombits(wire.Uint64At(buf, r.off))
		r.off += 8
	}
	d.chunkLo = int(r.u32("chunk offset"))
	if r.err == nil && r.off != len(buf) {
		r.err = &DeploymentError{Field: "trailing bytes", Off: r.off, Len: len(buf)}
	}
	if r.err != nil {
		return nil, r.err
	}
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
