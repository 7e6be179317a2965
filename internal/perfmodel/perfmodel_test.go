package perfmodel

import (
	"math"
	"testing"

	"repro/internal/simnet"
)

func paperSizes() []int { return []int{8, 16, 24, 32, 40, 48, 56, 64} }

func TestMachinesValidate(t *testing.T) {
	for _, m := range []Machine{DAS5(), HPCCloud()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	bad := DAS5()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid machine accepted")
	}
}

// TestFig1StrongScalingShape: total time strictly decreases with cluster
// size, update_phi dominates every point, and update_beta stays roughly
// constant (it is synchronisation-bound, as Section IV-A observes).
func TestFig1StrongScalingShape(t *testing.T) {
	pts := StrongScaling(DAS5(), simnet.DKVStore(), PaperFriendster(), paperSizes(), true)
	// Execution time steadily decreases; beyond the knee the curve may
	// flatten (the master's pipelined sampling is the Amdahl term), but it
	// must never regress by more than 1%.
	for i := 1; i < len(pts); i++ {
		if pts[i].E.Total > pts[i-1].E.Total*1.01 {
			t.Fatalf("total regressed: C=%d %.3fs -> C=%d %.3fs",
				pts[i-1].C, pts[i-1].E.Total, pts[i].C, pts[i].E.Total)
		}
	}
	if pts[len(pts)-1].E.Total > 0.6*pts[0].E.Total {
		t.Fatalf("no meaningful strong scaling: C=%d %.3fs vs C=%d %.3fs",
			pts[0].C, pts[0].E.Total, pts[len(pts)-1].C, pts[len(pts)-1].E.Total)
	}
	for _, p := range pts {
		e := p.E
		if e.UpdatePhi < e.UpdatePi || e.UpdatePhi < e.UpdateBetaTheta || e.UpdatePhi < e.DeployMinibatch {
			t.Fatalf("C=%d: update_phi (%.4fs) is not the dominant phase", p.C, e.UpdatePhi)
		}
	}
	first, last := pts[0].E.UpdateBetaTheta, pts[len(pts)-1].E.UpdateBetaTheta
	if ratio := first / last; ratio > 4 || ratio < 0.25 {
		t.Fatalf("update_beta_theta varies by %.1fx across cluster sizes; paper reports it ~constant", ratio)
	}
}

// TestFig1SpeedupSublinear: speedup grows with C but falls short of linear,
// flattening at large C as per-worker granularity shrinks.
func TestFig1SpeedupSublinear(t *testing.T) {
	pts := StrongScaling(DAS5(), simnet.DKVStore(), PaperFriendster(), paperSizes(), true)
	sp := Speedup(pts)
	if sp[0] != 1 {
		t.Fatalf("speedup[0] = %v, want 1", sp[0])
	}
	for i := 1; i < len(sp); i++ {
		if sp[i] < sp[i-1]*0.99 {
			t.Fatalf("speedup regressed at C=%d", pts[i].C)
		}
		linear := float64(pts[i].C) / float64(pts[0].C)
		if sp[i] >= linear {
			t.Fatalf("speedup %v at C=%d exceeds linear %v", sp[i], pts[i].C, linear)
		}
	}
	if sp[len(sp)-1] < 1.5 {
		t.Fatalf("speedup at C=%d only %v", pts[len(pts)-1].C, sp[len(sp)-1])
	}
	// Marginal gain shrinks: the last doubling buys less than the first.
	gainFirst := sp[1] / sp[0]
	gainLast := sp[len(sp)-1] / sp[len(sp)-2]
	if gainLast >= gainFirst {
		t.Fatalf("speedup curve not flattening: first gain %v, last %v", gainFirst, gainLast)
	}
}

// TestFig2WeakScalingFlat: growing K with C keeps per-iteration time within
// a modest band (the paper calls the change "insignificant").
func TestFig2WeakScalingFlat(t *testing.T) {
	base := PaperFriendster()
	pts := WeakScaling(DAS5(), simnet.DKVStore(), base, []int{4, 8, 16, 32, 64}, 192)
	lo, hi := math.Inf(1), 0.0
	for _, p := range pts {
		if p.E.Total < lo {
			lo = p.E.Total
		}
		if p.E.Total > hi {
			hi = p.E.Total
		}
	}
	if hi/lo > 1.6 {
		t.Fatalf("weak scaling varies %.2fx; paper reports a near-flat curve", hi/lo)
	}
}

// TestFig3PipelineGapWidens: double buffering always wins, and its absolute
// advantage grows with K (the widening gap of Figure 3).
func TestFig3PipelineGapWidens(t *testing.T) {
	ks := []int{1024, 2048, 4096, 8192, 12288}
	pts := PipelineSweep(DAS5(), simnet.DKVStore(), PaperFriendster(), 64, ks)
	prevGap := 0.0
	for _, p := range pts {
		if p.Double >= p.Single {
			t.Fatalf("K=%d: pipelined (%.3fs) not faster than single-buffered (%.3fs)", p.K, p.Double, p.Single)
		}
		gap := p.Single - p.Double
		if gap <= prevGap {
			t.Fatalf("K=%d: pipeline gap %.4fs did not widen (prev %.4fs)", p.K, gap, prevGap)
		}
		prevGap = gap
		// Execution time itself grows with K.
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Single <= pts[i-1].Single || pts[i].Double <= pts[i-1].Double {
			t.Fatal("execution time not increasing with K")
		}
	}
}

// TestTableIIIAgainstPaper pins the DAS5-calibrated model to the paper's
// measured per-stage times (ms/iteration, com-Friendster, 65 nodes,
// K = 12288). The model is a model — the tolerance is ±40%.
func TestTableIIIAgainstPaper(t *testing.T) {
	w := PaperFriendster()
	w.K = 12288
	net := simnet.DKVStore()
	m := DAS5()
	nonPip := Iteration(m, net, w, 64, false)
	pip := Iteration(m, net, w, 64, true)

	check := func(name string, got, paper float64) {
		t.Helper()
		if got < paper*0.6 || got > paper*1.4 {
			t.Errorf("%s: model %.1f ms, paper %.1f ms (off by %.0f%%)",
				name, got*1000, paper*1000, 100*(got-paper)/paper)
		}
	}
	check("total(non-pipelined)", nonPip.Total, 0.450)
	check("total(pipelined)", pip.Total, 0.365)
	check("draw/deploy", nonPip.DrawMinibatch+nonPip.DeployMinibatch, 0.0456)
	check("update_phi(non-pipelined)", nonPip.UpdatePhi, 0.285)
	check("update_phi(pipelined)", pip.UpdatePhi, 0.241)
	check("load_pi", nonPip.LoadPi, 0.205)
	check("compute_phi", nonPip.ComputePhi, 0.074)
	check("update_pi", nonPip.UpdatePi, 0.0038)
	check("update_beta_theta", nonPip.UpdateBetaTheta, 0.0259)
}

// TestFig4HorizontalBeatsVertical: at com-Friendster scale the 64-node
// cluster beats the 40-core big-memory node, and the gap widens with K.
func TestFig4HorizontalBeatsVertical(t *testing.T) {
	ks := []int{1024, 2048, 4096, 8192, 12288}
	pts := HorizontalVsVertical(DAS5(), HPCCloud(), simnet.DKVStore(), PaperFriendster(), 64, 40, ks)
	prevGap := 0.0
	for _, p := range pts {
		if p.Distributed >= p.Vertical {
			t.Fatalf("K=%d: distributed (%.3fs) not faster than vertical (%.3fs)", p.K, p.Distributed, p.Vertical)
		}
		gap := p.Vertical - p.Distributed
		if gap <= prevGap {
			t.Fatalf("K=%d: horizontal/vertical gap did not widen", p.K)
		}
		prevGap = gap
	}
}

// TestFig4aMoreCoresHelp: on the single big node, 40 cores beat 16 cores.
func TestFig4aMoreCoresHelp(t *testing.T) {
	w := PaperFriendster()
	w.K = 4096
	t40 := SingleNode(HPCCloud(), w, 40).Total
	t16 := SingleNode(HPCCloud(), w, 16).Total
	if t40 >= t16 {
		t.Fatalf("40 cores (%.3fs) not faster than 16 (%.3fs)", t40, t16)
	}
	// DAS5's faster cores beat HPC Cloud at equal thread count.
	das16 := SingleNode(DAS5(), w, 16).Total
	if das16 >= t16 {
		t.Fatalf("DAS5 16-core (%.3fs) not faster than HPC Cloud 16-core (%.3fs)", das16, t16)
	}
}

// TestFig5BandwidthShape: DKV bandwidth is visibly below qperf for small
// payloads, converges to within 10% between 8 KB and 512 KB, and dips again
// at the largest payloads (memory scatter).
func TestFig5BandwidthShape(t *testing.T) {
	pts := BandwidthSweep(simnet.FDRInfiniBand(), simnet.DKVStore(), Fig5Payloads())
	for _, p := range pts {
		if p.DKVBps > p.QperfBps {
			t.Fatalf("payload %d: DKV above qperf", p.PayloadBytes)
		}
		ratio := p.DKVBps / p.QperfBps
		switch {
		case p.PayloadBytes < 4<<10:
			if ratio > 0.92 {
				t.Errorf("payload %d: DKV/qperf = %.2f, paper shows a clear shortfall below 4KB", p.PayloadBytes, ratio)
			}
		case p.PayloadBytes >= 8<<10 && p.PayloadBytes <= 256<<10:
			if ratio < 0.90 {
				t.Errorf("payload %d: DKV/qperf = %.2f, paper shows near-parity in 8KB-512KB", p.PayloadBytes, ratio)
			}
		}
	}
	// Monotone bandwidth growth until the plateau.
	for i := 1; i < len(pts); i++ {
		if pts[i].QperfBps <= pts[i-1].QperfBps {
			t.Fatalf("qperf bandwidth not increasing at payload %d", pts[i].PayloadBytes)
		}
	}
	// Largest payload: scatter penalty pulls DKV below its 512KB ratio.
	last := pts[len(pts)-1]
	if last.DKVBps/last.QperfBps > 0.9 {
		t.Errorf("1MB payload: expected the memory-scatter dip, got ratio %.2f", last.DKVBps/last.QperfBps)
	}
}

func TestCalibrateSane(t *testing.T) {
	m := Calibrate()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Loose sanity bounds: each op costs between 0.05ns and 10µs.
	for name, v := range map[string]float64{
		"PhiOp": m.PhiOp, "PiOp": m.PiOp, "ThetaOp": m.ThetaOp, "PerpOp": m.PerpOp,
	} {
		if v < 5e-11 || v > 1e-5 {
			t.Errorf("%s = %v, out of sane range", name, v)
		}
	}
	// The bound is deliberately loose: calibration on a loaded or
	// single-core CI machine measures contended bandwidth.
	if m.MemBandwidth < 5e7 {
		t.Errorf("memory bandwidth %v implausibly low", m.MemBandwidth)
	}
}

func TestSimnetModels(t *testing.T) {
	raw := simnet.FDRInfiniBand()
	if err := raw.Validate(); err != nil {
		t.Fatal(err)
	}
	dkv := simnet.DKVStore()
	if err := dkv.Validate(); err != nil {
		t.Fatal(err)
	}
	// Transfer time grows with payload and with overhead.
	if raw.TransferTime(1024) >= raw.TransferTime(1<<20) {
		t.Fatal("transfer time not increasing in payload")
	}
	if dkv.TransferTime(1024) <= raw.TransferTime(1024) {
		t.Fatal("DKV op should cost more than raw op")
	}
	// Asymptotic bandwidth approaches line rate for raw transfers.
	if bw := raw.Bandwidth(16 << 20); bw < 0.95*raw.BandwidthBytesPerSec {
		t.Fatalf("large-payload bandwidth %.2e below line rate", bw)
	}
	bad := raw
	bad.BandwidthBytesPerSec = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestIterationThreadsIntraRankTerm(t *testing.T) {
	m := DAS5()
	net := simnet.FDRInfiniBand()
	w := PaperFriendster()

	// threads = Cores must reproduce Iteration exactly (it is the same
	// computation), and out-of-range thread counts clamp to it.
	for _, c := range []int{1, 8, 64} {
		for _, pipelined := range []bool{false, true} {
			full := Iteration(m, net, w, c, pipelined)
			for _, threads := range []int{m.Cores, 0, -3, m.Cores + 10} {
				got := IterationThreads(m, net, w, c, threads, pipelined)
				if got.Total != full.Total || got.ComputePhi != full.ComputePhi {
					t.Fatalf("c=%d threads=%d pipelined=%v: total %v != Iteration's %v",
						c, threads, pipelined, got.Total, full.Total)
				}
			}
		}
	}

	// More threads must monotonically shrink the compute term and never
	// hurt the total; with one thread, compute dominates by Cores×.
	for _, c := range []int{1, 16, 64} {
		prev := IterationThreads(m, net, w, c, 1, true)
		one := prev
		for threads := 2; threads <= m.Cores; threads *= 2 {
			cur := IterationThreads(m, net, w, c, threads, true)
			if cur.ComputePhi >= prev.ComputePhi {
				t.Fatalf("c=%d: compute_phi did not shrink going to %d threads (%v >= %v)",
					c, threads, cur.ComputePhi, prev.ComputePhi)
			}
			if cur.Total > prev.Total {
				t.Fatalf("c=%d: total grew going to %d threads (%v > %v)",
					c, threads, cur.Total, prev.Total)
			}
			prev = cur
		}
		wantRatio := float64(m.Cores)
		if got := one.ComputePhi / prev.ComputePhi; math.Abs(got-wantRatio) > 1e-9*wantRatio {
			t.Fatalf("c=%d: 1-thread/%d-thread compute ratio %v, want %v", c, m.Cores, got, wantRatio)
		}
	}

	// The network terms must NOT scale with threads: a communication-bound
	// configuration (many ranks, huge K) improves far less than linearly.
	big := w
	big.K = 12288
	lo := IterationThreads(m, net, big, 64, 1, true)
	hi := IterationThreads(m, net, big, 64, m.Cores, true)
	if lo.LoadPi != hi.LoadPi {
		t.Fatalf("load_pi changed with threads: %v vs %v", lo.LoadPi, hi.LoadPi)
	}
}
