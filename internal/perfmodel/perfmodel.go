// Package perfmodel is the calibrated performance model that reproduces the
// paper's cluster-scale results (Figures 1-4, Table III) on a single
// machine. One laptop cannot provide 65 × 16 real cores, so the scaling
// experiments are regenerated analytically: the algorithm's per-phase
// operation counts (Section III-C of the paper) are combined with
//
//   - per-operation compute costs, either calibrated to the paper's DAS5
//     numbers (DAS5()) or measured on the current host (Calibrate());
//   - the simnet network model (latency / bandwidth / request overhead).
//
// The real distributed engine (internal/dist) validates the model's shape at
// small rank counts; the model extrapolates the same phase structure to the
// paper's 65 nodes. Every formula mirrors a sentence of Section III-C:
// update_phi does M/C × |V_n| × K work and loads (C-1)/C of its π rows
// remotely, update_beta does |E_n|/C × K work plus a collective reduction,
// and so on.
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/simnet"
)

// Machine holds per-node compute characteristics. The *Op costs are seconds
// per innermost unit on ONE core.
type Machine struct {
	Name string
	// PhiOp is the cost of one (neighbor, community) unit of update_phi.
	PhiOp float64
	// PiOp is the cost of one (vertex, community) unit of update_pi.
	PiOp float64
	// ThetaOp is the cost of one (pair, community) unit of update_beta.
	ThetaOp float64
	// PerpOp is the cost of one (held-out pair, community) unit.
	PerpOp float64
	// SampleOp is the master's cost to draw one minibatch vertex pair.
	SampleOp float64
	// Cores is the usable core count per node.
	Cores int
	// MemBandwidth bounds single-node state streaming (bytes/s); it is the
	// ceiling that makes vertical scaling sub-linear in Figure 4.
	MemBandwidth float64
	// ReadEfficiency is the achieved fraction of line rate for the gather-
	// heavy π loads (incast contention); writes stream at full rate.
	ReadEfficiency float64
	// SyncBase + SyncPerRank·C models one MPI collective's latency floor
	// (progression, stragglers).
	SyncBase    float64
	SyncPerRank float64
	// OverheadFactor scales the summed phase times to the measured total
	// (load imbalance, progress loops): the paper's Table III rows sum to
	// ~80% of its measured total, so DAS5 uses 1.25.
	OverheadFactor float64
}

// DAS5 returns constants calibrated against the paper's Table III (65 DAS5
// nodes, dual 8-core E5-2630v3 at 2.4 GHz, FDR InfiniBand): with the
// PaperFriendster workload at K = 12288 and 64 workers the model lands
// within ~15% of every row of the table.
func DAS5() Machine {
	return Machine{
		Name:           "das5",
		PhiOp:          1.14e-8,
		PiOp:           1.0e-8,
		ThetaOp:        1.2e-8,
		PerpOp:         0.9e-8,
		SampleOp:       1.7e-6,
		Cores:          16,
		MemBandwidth:   59e9,
		ReadEfficiency: 0.30,
		SyncBase:       2e-4,
		SyncPerRank:    3.0e-5,
		OverheadFactor: 1.25,
	}
}

// HPCCloud returns the SURFsara HPC Cloud node of Section IV-D: 40 E7-4850
// cores at 2.0 GHz and 1 TB of memory. Per-core throughput is lower than
// DAS5 (older microarchitecture, lower clock); memory bandwidth is the
// 4-socket aggregate.
func HPCCloud() Machine {
	m := DAS5()
	m.Name = "hpccloud"
	m.PhiOp *= 1.55
	m.PiOp *= 1.55
	m.ThetaOp *= 1.55
	m.PerpOp *= 1.55
	m.Cores = 40
	m.MemBandwidth = 85e9
	return m
}

// Validate reports the first invalid field.
func (m Machine) Validate() error {
	switch {
	case m.PhiOp <= 0 || m.PiOp <= 0 || m.ThetaOp <= 0 || m.PerpOp <= 0 || m.SampleOp <= 0:
		return fmt.Errorf("perfmodel: non-positive op cost")
	case m.Cores < 1:
		return fmt.Errorf("perfmodel: cores = %d", m.Cores)
	case m.MemBandwidth <= 0:
		return fmt.Errorf("perfmodel: non-positive memory bandwidth")
	case m.ReadEfficiency <= 0 || m.ReadEfficiency > 1:
		return fmt.Errorf("perfmodel: read efficiency %v out of (0,1]", m.ReadEfficiency)
	case m.SyncBase < 0 || m.SyncPerRank < 0:
		return fmt.Errorf("perfmodel: negative sync cost")
	}
	return nil
}

// Workload mirrors the experiment parameters of Section IV.
type Workload struct {
	Name string
	N    int // vertices
	K    int // communities
	// MinibatchPairs is |E_n|; M (vertices touched) defaults to 2·|E_n|.
	MinibatchPairs int
	M              int
	NeighborCount  int     // |V_n|
	HeldOut        int     // |E_h|
	MeanDegree     float64 // drives minibatch deployment size
	PhiChunkNodes  int     // pipeline chunk granularity
}

func (w Workload) withDefaults() Workload {
	if w.M == 0 {
		w.M = 2 * w.MinibatchPairs
	}
	if w.PhiChunkNodes == 0 {
		w.PhiChunkNodes = 16
	}
	return w
}

// RowBytes returns the DKV value size for the workload's K.
func (w Workload) RowBytes() int { return 4*w.K + 8 }

// PaperFriendster returns the com-Friendster workload of Figure 1:
// K = 1024, M = 16384 minibatch vertices, |V_n| = 32.
func PaperFriendster() Workload {
	return Workload{
		Name:           "com-friendster",
		N:              65608366,
		K:              1024,
		MinibatchPairs: 8192,
		M:              16384,
		NeighborCount:  32,
		HeldOut:        2048 * 1024,
		MeanDegree:     55,
	}
}

// Estimate is the modeled per-iteration cost breakdown, in seconds. The
// names parallel the paper's Table III rows.
type Estimate struct {
	DrawMinibatch   float64 // master: sampling E_n (overlapped when pipelined)
	DeployMinibatch float64 // scatter of vertices + adjacency
	LoadPi          float64 // DKV reads inside update_phi
	ComputePhi      float64 // arithmetic inside update_phi
	UpdatePhi       float64 // wall time of the stage (max or sum of the two)
	UpdatePi        float64
	UpdateBetaTheta float64
	Barriers        float64
	Total           float64
}

// Iteration models one training iteration on C cluster nodes with every
// core of each node computing (threads = Cores).
func Iteration(m Machine, net simnet.Model, w Workload, c int, pipelined bool) Estimate {
	return IterationThreads(m, net, w, c, m.Cores, pipelined)
}

// IterationThreads is Iteration with an explicit intra-rank thread count —
// the model's counterpart of the engine's Threads knob, so Figure-1-style
// projections can cover rank×thread sweeps. The compute terms of every phase
// divide by threads (the OpenMP-style parallel-for over vertices, pairs, and
// held-out chunks); the network terms do not, which is why thread scaling
// flattens once a phase goes communication-bound. threads is clamped to
// [1, m.Cores].
func IterationThreads(m Machine, net simnet.Model, w Workload, c, threads int, pipelined bool) Estimate {
	w = w.withDefaults()
	var e Estimate
	if c < 1 {
		c = 1
	}
	if threads < 1 || threads > m.Cores {
		threads = m.Cores
	}
	mPer := ceilDiv(w.M, c)
	pairsPer := ceilDiv(w.MinibatchPairs, c)
	rowB := float64(w.RowBytes())
	remote := float64(c-1) / float64(c)
	readBW := net.BandwidthBytesPerSec * m.ReadEfficiency
	cores := float64(threads)

	// draw/deploy mini-batch (master). Deployment ships each vertex id, its
	// adjacency, and the pair list.
	e.DrawMinibatch = float64(w.M) * m.SampleOp
	deployBytes := float64(w.M)*(1+w.MeanDegree)*4 + float64(w.MinibatchPairs)*9
	e.DeployMinibatch = float64(c-1)*net.LatencySec + deployBytes/net.BandwidthBytesPerSec

	// update_phi: load π rows for the rank's vertices and their neighbor
	// sets; compute is M/C × |V_n| × K.
	rows := float64(mPer) * float64(w.NeighborCount+1)
	nChunks := float64(ceilDiv(mPer, w.PhiChunkNodes))
	e.LoadPi = nChunks*(net.LatencySec+net.RequestOverheadSec) + rows*remote*rowB/readBW
	e.ComputePhi = float64(mPer) * float64(w.NeighborCount+1) * float64(w.K) * m.PhiOp / cores
	if pipelined {
		// Double buffering overlaps the two; the longer one dominates, plus
		// one chunk of the shorter as pipeline fill.
		longer := math.Max(e.LoadPi, e.ComputePhi)
		shorter := math.Min(e.LoadPi, e.ComputePhi)
		e.UpdatePhi = longer + shorter/math.Max(nChunks, 1)
	} else {
		e.UpdatePhi = e.LoadPi + e.ComputePhi
	}

	// update_pi: M/C × K compute plus write-back of the rank's rows.
	e.UpdatePi = float64(mPer)*float64(w.K)*m.PiOp/cores +
		net.LatencySec + net.RequestOverheadSec +
		float64(mPer)*remote*rowB/net.BandwidthBytesPerSec

	// update_beta/theta: load the pair endpoints, |E_n|/C × K compute, then
	// a gather of per-chunk gradient partials and a θ broadcast.
	pairRows := 2 * float64(pairsPer)
	gradChunk := 64.0
	localChunks := math.Ceil(float64(pairsPer) / gradChunk)
	partialBytes := localChunks * 2 * float64(w.K) * 8
	thetaBytes := 2 * float64(w.K) * 8
	e.UpdateBetaTheta = pairRows*remote*rowB/readBW + net.LatencySec + net.RequestOverheadSec +
		float64(pairsPer)*float64(w.K)*m.ThetaOp/cores +
		float64(c)*partialBytes/readBW + // incast gather at master
		float64(c)*thetaBytes/net.BandwidthBytesPerSec + // broadcast
		m.SyncBase + m.SyncPerRank*float64(c)

	// Two phase barriers per iteration.
	e.Barriers = 2 * (m.SyncBase + m.SyncPerRank*float64(c))

	e.Total = e.DeployMinibatch + e.UpdatePhi + e.UpdatePi + e.UpdateBetaTheta + e.Barriers
	if !pipelined {
		e.Total += e.DrawMinibatch
	} else if e.DrawMinibatch > e.Total {
		// The master's prefetch goroutine samples iteration t+1 while the
		// whole of iteration t executes; only the excess beyond a full
		// iteration remains on the critical path. This is the Amdahl term
		// that flattens the strong-scaling curve at large C.
		e.Total = e.DrawMinibatch
	}
	if m.OverheadFactor > 1 {
		e.Total *= m.OverheadFactor
	}
	return e
}

// SingleNode models the vertical-scaling alternative of Section IV-D: the
// whole state in one machine's memory, `threads` cores, no network. The
// update_phi stage is bounded below by streaming its π rows from DRAM.
func SingleNode(m Machine, w Workload, threads int) Estimate {
	w = w.withDefaults()
	if threads < 1 || threads > m.Cores {
		threads = m.Cores
	}
	var e Estimate
	cores := float64(threads)
	rowB := float64(w.RowBytes())

	e.DrawMinibatch = float64(w.M) * m.SampleOp
	rows := float64(w.M) * float64(w.NeighborCount+1)
	memTime := rows * rowB / m.MemBandwidth
	e.ComputePhi = float64(w.M) * float64(w.NeighborCount+1) * float64(w.K) * m.PhiOp / cores
	e.LoadPi = memTime
	e.UpdatePhi = math.Max(e.ComputePhi, memTime)
	e.UpdatePi = float64(w.M) * float64(w.K) * m.PiOp / cores
	e.UpdateBetaTheta = float64(w.MinibatchPairs) * float64(w.K) * m.ThetaOp / cores
	e.Total = e.DrawMinibatch + e.UpdatePhi + e.UpdatePi + e.UpdateBetaTheta
	return e
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
