package dist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mathx"
)

// TestTCPTransportMatchesInproc runs the full engine over a real TCP
// loopback mesh and demands bit-exact agreement with the in-process fabric —
// the protocol must not depend on transport-specific behavior.
func TestTCPTransportMatchesInproc(t *testing.T) {
	train, held := fixture(t, 180, 4, 900, 91)
	cfg := core.DefaultConfig(4, 17)
	const ranks, iters = 3, 6

	inproc, err := Run(cfg, train, held, Options{Ranks: ranks, Iterations: iters, EvalEvery: 3})
	if err != nil {
		t.Fatal(err)
	}

	conns := dialTestMesh(t, ranks)

	tcp, err := RunOnTransport(cfg, train, held, Options{Iterations: iters, EvalEvery: 3}, conns)
	if err != nil {
		t.Fatal(err)
	}

	if d := mathx.MaxAbsDiff32(inproc.State.Pi, tcp.State.Pi); d != 0 {
		t.Fatalf("TCP π differs from inproc by %v", d)
	}
	if d := mathx.MaxAbsDiff(inproc.State.Theta, tcp.State.Theta); d != 0 {
		t.Fatalf("TCP θ differs from inproc by %v", d)
	}
	for i := range inproc.Perplexity {
		if inproc.Perplexity[i].Value != tcp.Perplexity[i].Value {
			t.Fatalf("perplexity %d differs: %v vs %v", i,
				inproc.Perplexity[i].Value, tcp.Perplexity[i].Value)
		}
	}
}
