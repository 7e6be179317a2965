package dist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestPublishEveryThins: PublishEvery = 3 publishes only every third
// iteration's version.
func TestPublishEveryThins(t *testing.T) {
	train, held := fixture(t, 200, 4, 1000, 58)
	cfg := core.DefaultConfig(4, 322)
	pub := store.NewPublisher()
	var versions []int
	pub.Subscribe(func(s *store.Snapshot) { versions = append(versions, s.Version) })
	if _, err := Run(cfg, train, held, Options{
		Ranks: 2, Iterations: 7, Publisher: pub, PublishEvery: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[0] != 3 || versions[1] != 6 {
		t.Fatalf("PublishEvery=3 over 7 iters published %v, want [3 6]", versions)
	}
}

// TestServeDuringTraining runs queries against a live training run: a serve
// engine attached to the run's publisher answers TopK during the run with
// monotone versions, and after the run serves exactly the final model.
func TestServeDuringTraining(t *testing.T) {
	train, held := fixture(t, 220, 4, 1100, 60)
	cfg := core.DefaultConfig(4, 324)
	const iters = 10

	pub := store.NewPublisher()
	eng := serve.NewEngine(0)
	eng.Attach(pub)

	stop := make(chan struct{})
	queried := make(chan error, 1)
	go func() {
		defer close(queried)
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if eng.Snapshot() == nil {
				continue
			}
			top, snap, err := eng.TopK(7, 3)
			if err != nil {
				queried <- err
				return
			}
			if snap.Version < last || snap.Version > iters {
				queried <- nil
				t.Errorf("served version %d after %d (max %d)", snap.Version, last, iters)
				return
			}
			last = snap.Version
			if len(top) != 3 {
				queried <- nil
				t.Errorf("TopK served %d entries, want 3", len(top))
				return
			}
		}
	}()

	res, err := Run(cfg, train, held, Options{Ranks: 2, Iterations: iters, Publisher: pub})
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-queried; err != nil {
		t.Fatal(err)
	}

	snap := eng.Snapshot()
	if snap.Version != iters {
		t.Fatalf("engine left at version %d, want %d", snap.Version, iters)
	}
	if d := mathx.MaxAbsDiff32(snap.Pi, res.State.Pi); d != 0 {
		t.Fatalf("served final π differs from trained state by %v", d)
	}
}
