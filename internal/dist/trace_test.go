package dist

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// dialTestMesh builds a TCP loopback mesh for the test's rank count.
func dialTestMesh(t *testing.T, ranks int) []transport.Conn {
	t.Helper()
	conns, cleanup, err := transport.DialLoopbackMesh(ranks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	return conns
}

// TestTraceGatherTCP runs two ranks over a real TCP mesh with tracing on and
// no event log, and checks the buffered result: one bundle per rank, nested
// iteration/stage spans from both, and DKV server-side spans whose Peer
// names the REQUESTING rank.
func TestTraceGatherTCP(t *testing.T) {
	train, held := fixture(t, 180, 4, 900, 91)
	cfg := core.DefaultConfig(4, 17)
	const ranks, iters = 2, 6

	conns := dialTestMesh(t, ranks)
	res, err := RunOnTransport(cfg, train, held, Options{
		Iterations: iters, EvalEvery: 0, Trace: true,
	}, conns)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Trace) != ranks {
		t.Fatalf("Result.Trace has %d bundles, want %d", len(res.Trace), ranks)
	}
	byRank := map[int]obs.TraceBundle{}
	for _, b := range res.Trace {
		byRank[b.Rank] = b
	}
	for r := 0; r < ranks; r++ {
		b, ok := byRank[r]
		if !ok {
			t.Fatalf("no bundle for rank %d", r)
		}
		iterCount := 0
		serveSpans := 0
		stageUnderIter := 0
		iterIDs := map[obs.SpanID]bool{}
		for _, sp := range b.Spans {
			if sp.Cat == obs.CatIter {
				iterCount++
				iterIDs[sp.ID] = true
			}
		}
		for _, sp := range b.Spans {
			switch sp.Cat {
			case obs.CatStage:
				if iterIDs[sp.Parent] {
					stageUnderIter++
				}
			case obs.CatDKVServe:
				if sp.Parent == 0 {
					serveSpans++
					// The whole point of server-side spans: Peer is the rank
					// that ASKED, i.e. the other rank in a 2-rank run.
					if sp.Peer != 1-r {
						t.Errorf("rank %d serve span peer = %d, want requester %d", r, sp.Peer, 1-r)
					}
				}
			}
		}
		if iterCount != iters {
			t.Errorf("rank %d recorded %d iter spans, want %d", r, iterCount, iters)
		}
		if stageUnderIter == 0 {
			t.Errorf("rank %d has no stage spans parented under an iteration", r)
		}
		if serveSpans == 0 {
			t.Errorf("rank %d recorded no DKV server-side spans", r)
		}
	}
}

// TestCriticalPathNamesInjectedStraggler is the end-to-end acceptance check:
// delay one rank's collective sends (the ocd-train -slow-rank injection),
// trace the run over TCP, and demand the analyzer attribute the majority of
// the critical path to the injected rank.
func TestCriticalPathNamesInjectedStraggler(t *testing.T) {
	train, held := fixture(t, 180, 4, 900, 91)
	cfg := core.DefaultConfig(4, 17)
	const ranks, iters, slow = 2, 8, 1

	conns := dialTestMesh(t, ranks)
	conns[slow] = &transport.FaultConn{
		Conn: conns[slow],
		DelaySend: func(_ int, tag uint32) time.Duration {
			if tag < cluster.TagUserBase {
				return 2 * time.Millisecond
			}
			return 0
		},
	}
	res, err := RunOnTransport(cfg, train, held, Options{
		Iterations: iters, EvalEvery: 0, Trace: true,
	}, conns)
	if err != nil {
		t.Fatal(err)
	}

	rep := obs.AnalyzeCriticalPath(res.Trace)
	if len(rep.Iters) != iters {
		t.Fatalf("analyzer found %d iteration windows, want %d", len(rep.Iters), iters)
	}
	if rep.Verdict != slow {
		t.Fatalf("verdict = rank %d, want the injected straggler rank %d\n%s",
			rep.Verdict, slow, rep.String())
	}
	if rep.VerdictFrac < 0.5 {
		t.Fatalf("injected rank owns only %.1f%% of the critical path, want >= 50%%\n%s",
			100*rep.VerdictFrac, rep.String())
	}
}
