package dist

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestPublishDoesNotPerturbTraining: a run with snapshot publication enabled
// must train the exact same model, bit for bit, as one without — publication
// only reads sealed state at the barrier, it draws no randomness and writes
// nothing. Versions must arrive strictly monotone and the final published
// snapshot must equal the final assembled state.
func TestPublishDoesNotPerturbTraining(t *testing.T) {
	train, held := fixture(t, 220, 4, 1100, 57)
	cfg := core.DefaultConfig(4, 321)
	const iters = 8

	plain, err := Run(cfg, train, held, Options{Ranks: 3, Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}

	pub := store.NewPublisher()
	var mu sync.Mutex
	var versions []int
	pub.Subscribe(func(s *store.Snapshot) {
		mu.Lock()
		versions = append(versions, s.Version)
		mu.Unlock()
	})
	served, err := Run(cfg, train, held, Options{
		Ranks: 3, Iterations: iters, Publisher: pub,
	})
	if err != nil {
		t.Fatal(err)
	}

	if d := mathx.MaxAbsDiff32(plain.State.Pi, served.State.Pi); d != 0 {
		t.Fatalf("publication changed π by %v; must be bit-identical", d)
	}
	if d := mathx.MaxAbsDiff(plain.State.Theta, served.State.Theta); d != 0 {
		t.Fatalf("publication changed θ by %v; must be bit-identical", d)
	}

	if len(versions) != iters {
		t.Fatalf("published %d versions (%v), want one per iteration = %d", len(versions), versions, iters)
	}
	for i, v := range versions {
		if v != i+1 {
			t.Fatalf("version sequence %v not the monotone 1..%d", versions, iters)
		}
	}

	final := pub.Current()
	if final == nil || final.Version != iters {
		t.Fatalf("final published snapshot %+v, want version %d", final, iters)
	}
	if d := mathx.MaxAbsDiff32(final.Pi, served.State.Pi); d != 0 {
		t.Fatalf("final snapshot π differs from assembled state by %v", d)
	}
	if d := mathx.MaxAbsDiff(final.Beta, served.State.Beta); d != 0 {
		t.Fatalf("final snapshot β differs from assembled state by %v", d)
	}
}

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

// TestDistributedPublishMatchesLocal: the distributed gather-published
// snapshots are bit-identical to the local sampler's publications at every
// iteration — the serving tier observes one model, whichever engine trained
// it.
func TestDistributedPublishMatchesLocal(t *testing.T) {
	train, held := fixture(t, 240, 5, 1200, 59)
	cfg := core.DefaultConfig(5, 323)
	const iters = 6

	localPub := store.NewPublisher()
	var localSnaps []*store.Snapshot
	localPub.Subscribe(func(s *store.Snapshot) { localSnaps = append(localSnaps, s) })
	seq, err := core.NewSampler(cfg, train, held, core.SamplerOptions{Threads: 2, Publisher: localPub})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run(iters)

	distPub := store.NewPublisher()
	var mu sync.Mutex
	var distSnaps []*store.Snapshot
	distPub.Subscribe(func(s *store.Snapshot) {
		mu.Lock()
		distSnaps = append(distSnaps, s)
		mu.Unlock()
	})
	if _, err := Run(cfg, train, held, Options{
		Ranks: 3, Threads: 2, Iterations: iters, Publisher: distPub,
	}); err != nil {
		t.Fatal(err)
	}

	if len(localSnaps) != iters || len(distSnaps) != iters {
		t.Fatalf("local published %d, dist %d; want %d each", len(localSnaps), len(distSnaps), iters)
	}
	for i := range localSnaps {
		l, d := localSnaps[i], distSnaps[i]
		if l.Version != d.Version || l.N != d.N || l.K != d.K {
			t.Fatalf("snapshot %d header mismatch: local %d/%dx%d vs dist %d/%dx%d",
				i, l.Version, l.N, l.K, d.Version, d.N, d.K)
		}
		if diff := mathx.MaxAbsDiff32(l.Pi, d.Pi); diff != 0 {
			t.Fatalf("snapshot v%d: π differs by %v between engines", l.Version, diff)
		}
		if diff := mathx.MaxAbsDiff(l.Beta, d.Beta); diff != 0 {
			t.Fatalf("snapshot v%d: β differs by %v between engines", l.Version, diff)
		}
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
