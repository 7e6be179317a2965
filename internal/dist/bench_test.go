package dist

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/transport"
)

// benchOptions is the shared configuration of BenchmarkDistIteration: an
// in-process 2-rank fabric, realistic minibatch sizes, no perplexity
// evaluation (the iteration loop is what is being measured). The pipelined
// and serial variants differ only in the Section III-D overlap schedule, so
// their ratio is the pipelining speedup.
func benchOptions(iters int, pipelined bool) Options {
	return Options{
		Ranks:          2,
		Threads:        2,
		Iterations:     iters,
		Pipeline:       pipelined,
		MinibatchPairs: 512,
		NeighborCount:  32,
	}
}

func benchFixture(b *testing.B) (*graph.Graph, *graph.HeldOut) {
	b.Helper()
	g, _, err := gen.Planted(gen.DefaultPlanted(2000, 8, 16000, 61))
	if err != nil {
		b.Fatal(err)
	}
	train, held, err := graph.Split(g, g.NumEdges()/10, mathx.NewRNG(62))
	if err != nil {
		b.Fatal(err)
	}
	return train, held
}

func benchmarkDistIteration(b *testing.B, opts Options) {
	train, held := benchFixture(b)
	cfg := core.DefaultConfig(8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, train, held, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.State == nil {
			b.Fatal("no state")
		}
	}
}

// BenchmarkDistIteration measures the full 2-rank iteration loop (deploy →
// update_phi → update_pi → update_beta_theta): serial vs pipelined double
// buffering. The gated end-to-end numbers for the same stack are the
// dist_tcp workload of `bash bench/run.sh`.
func BenchmarkDistIteration(b *testing.B) {
	const itersPerRun = 4
	b.Run("serial", func(b *testing.B) { benchmarkDistIteration(b, benchOptions(itersPerRun, false)) })
	b.Run("pipelined", func(b *testing.B) { benchmarkDistIteration(b, benchOptions(itersPerRun, true)) })
}

// simnetConn is the benchmark's wire model: sends carrying DKV traffic (tags
// at or above cluster.TagUserBase) pay a per-message latency plus a
// bytes/bandwidth transfer time before reaching the in-proc fabric, while
// collective tags pass untouched — the same shape internal/simnet models
// analytically, here injected into the real engine so the π-load/compute
// overlap is measured, not estimated. Sleeping on the send side delays both
// the request (reader → owner) and the response (owner's server goroutine →
// reader), so a round trip costs two latencies plus the payload transfers,
// all of it overlappable by the pipelined schedule.
type simnetConn struct {
	transport.Conn
	latency     time.Duration
	bytesPerSec float64
}

func (c *simnetConn) Send(to int, tag uint32, payload []byte) error {
	if tag >= cluster.TagUserBase {
		time.Sleep(c.latency + time.Duration(float64(len(payload))/c.bytesPerSec*float64(time.Second)))
	}
	return c.Conn.Send(to, tag, payload)
}

// sweepConns builds the rank interconnect for one BenchmarkDistSweep cell.
func sweepConns(b *testing.B, kind string, ranks int) ([]transport.Conn, func()) {
	b.Helper()
	switch kind {
	case "inproc", "simnet":
		fabric, err := transport.NewFabric(ranks)
		if err != nil {
			b.Fatal(err)
		}
		conns := fabric.Endpoints()
		if kind == "simnet" {
			// Ethernet-class parameters: slow enough that π transfer time
			// rivals the compute, which is the regime Section III-D's
			// overlap targets (on FDR InfiniBand numbers the loads would
			// vanish at this problem size and every schedule would tie).
			for r := range conns {
				conns[r] = &simnetConn{Conn: conns[r], latency: 50 * time.Microsecond, bytesPerSec: 50e6}
			}
		}
		return conns, func() { fabric.Close() }
	case "tcp":
		// Loopback mesh with real wire framing (cmd/ocd-train's -transport
		// tcp path).
		conns, cleanup, err := transport.DialLoopbackMesh(ranks)
		if err != nil {
			b.Fatal(err)
		}
		return conns, cleanup
	default:
		b.Fatalf("unknown sweep transport %q", kind)
		return nil, nil
	}
}

func benchmarkSweepCell(b *testing.B, kind string, threads int, pipelined bool) {
	train, held := benchFixture(b)
	// K=64 puts the cells in the paper's regime: π rows are 256 B, so both
	// the per-chunk transfer time and the per-chunk compute are large against
	// a round-trip latency — the overlap the pipelined schedule exists to
	// exploit. At the legacy benchmark's K=8 every load is latency-bound and
	// chunking can only lose.
	cfg := core.DefaultConfig(64, 7)
	opts := benchOptions(4, pipelined)
	opts.Threads = threads
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		conns, cleanup := sweepConns(b, kind, opts.Ranks)
		b.StartTimer()
		res, err := RunOnTransport(cfg, train, held, opts, conns)
		b.StopTimer()
		cleanup()
		if err != nil {
			b.Fatal(err)
		}
		if res.State == nil {
			b.Fatal("no state")
		}
		b.StartTimer()
	}
}

// BenchmarkDistSweep is the rank×thread×transport scaling grid: 2 ranks,
// threads ∈ {1, 2, 4}, serial vs pipelined, over the in-proc fabric, the
// simnet wire model, and a real TCP loopback mesh. Interconnect setup runs
// outside the timer, so ns/op is the training run alone. Pipelining should
// be a win (speedup > 1.0) on the remote transports — the regression this
// grid exists to catch; on inproc the schedules are expected to tie, since
// the φ stage demotes nothing there but loads are memcpys.
func BenchmarkDistSweep(b *testing.B) {
	for _, kind := range []string{"inproc", "simnet", "tcp"} {
		b.Run(kind, func(b *testing.B) {
			for _, threads := range []int{1, 2, 4} {
				b.Run(fmt.Sprintf("r2t%d", threads), func(b *testing.B) {
					b.Run("serial", func(b *testing.B) { benchmarkSweepCell(b, kind, threads, false) })
					b.Run("pipelined", func(b *testing.B) { benchmarkSweepCell(b, kind, threads, true) })
				})
			}
		})
	}
}
