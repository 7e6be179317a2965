package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Snapshot is an immutable, versioned copy of the model's π matrix sealed at
// a phase barrier: a row-major float32 slab plus the β strengths, with no
// references into live training state. Once constructed it is never mutated,
// which is what lets the serving tier hand it to concurrently running
// readers through a single atomic pointer flip — readers take no lock and
// can never observe a half-written iteration, because the writer seals the
// copy completely before the flip.
type Snapshot struct {
	// Version is the number of completed training iterations the snapshot
	// reflects (a checkpoint-backed snapshot carries the stored iteration).
	// Versions published by one run are strictly increasing.
	Version int
	// N and K are the matrix dimensions.
	N, K int
	// Pi is the sealed row-major N×K membership matrix; row a is
	// Pi[a*K : (a+1)*K] and sums to 1.
	Pi []float32
	// Beta[k] is the community strength at seal time (nil when the sealing
	// store had no θ view; query semantics do not depend on it).
	Beta []float64
	// SealedAt is the wall-clock instant the copy completed; the serving
	// tier derives response staleness from it.
	SealedAt time.Time
}

// PiRow returns vertex a's sealed membership row.
func (s *Snapshot) PiRow(a int) []float32 { return s.Pi[a*s.K : (a+1)*s.K] }

// TakeSnapshot seals the current rows of ps into an immutable Snapshot
// through Sweep: every backend — local, mmap, tiered, DKV — is sealed by the
// same batched read, and the rows land straight in the snapshot's slab. Call
// it only at a phase barrier (no writes in flight), the discipline Flush
// documents; the returned snapshot shares no memory with the store. beta
// (copied, may be nil) is the β vector at the barrier — the store itself holds
// only π/Σφ. The slab is all N×K floats in RAM whatever the backend: an
// out-of-core run that publishes trades memory for queryability.
//
// On a DKVStore the calling (serving) rank gathers every shard: peers take
// part passively through their DKV server goroutines.
func TakeSnapshot(ps PiStore, version int, beta []float64) (*Snapshot, error) {
	n, k := ps.NumRows(), ps.K()
	snap := &Snapshot{
		Version: version,
		N:       n,
		K:       k,
		Pi:      make([]float32, n*k),
		Beta:    append([]float64(nil), beta...),
	}
	if err := Sweep(ps, snap.Pi, nil); err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	snap.SealedAt = time.Now()
	return snap, nil
}

// Snapshot is TakeSnapshot over the local backend, kept for the benchmark
// module's callers until it moves to TakeSnapshot.
func (s *LocalStore) Snapshot(version int, beta []float64) (*Snapshot, error) {
	return TakeSnapshot(s, version, beta)
}

// Publisher is the RCU write side of snapshot publication: Publish installs
// a sealed snapshot with one atomic pointer store, Current returns the most
// recently published one with one atomic load. Readers therefore never block
// a publisher and never see a torn view; a reader that loaded version v
// keeps a fully consistent v even while v+1 is being published.
//
// Subscribers (Subscribe) run synchronously inside Publish, BEFORE the
// pointer flip — this is where the serving tier builds its per-snapshot
// inverted index, off the read path, so by the time a version becomes
// Current every derived structure for it already exists.
type Publisher struct {
	cur atomic.Pointer[Snapshot]

	mu   sync.Mutex
	subs []func(*Snapshot)

	lastVersion atomic.Int64
	flipNS      atomic.Int64
}

// NewPublisher returns an empty publisher; Current is nil until the first
// Publish.
func NewPublisher() *Publisher { return &Publisher{} }

// Current returns the most recently published snapshot, or nil before the
// first publication. The returned snapshot is immutable and safe to read
// for as long as the caller holds it, regardless of later publications.
func (p *Publisher) Current() *Snapshot { return p.cur.Load() }

// Subscribe registers f to run inside every subsequent Publish, before the
// snapshot becomes Current. If a snapshot is already published, f runs on it
// immediately, so a late subscriber never misses the current state. The
// catch-up call holds the lock Publish takes, so a Publish racing Subscribe
// either completes first (f sees only the newer version) or waits for the
// catch-up (f sees the older, then the newer): f sees every version at most
// once, in increasing order. f must not call Subscribe or Publish.
func (p *Publisher) Subscribe(f func(*Snapshot)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.subs = append(p.subs, f)
	if s := p.cur.Load(); s != nil {
		f(s)
	}
}

// Publish installs snap: subscribers first (index builds), then the atomic
// pointer flip. Versions must be strictly increasing — a stale or replayed
// version is rejected so readers can rely on monotonicity.
func (p *Publisher) Publish(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("store: publish of nil snapshot")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur := p.cur.Load(); cur != nil && snap.Version <= cur.Version {
		return fmt.Errorf("store: publish version %d not after current %d", snap.Version, cur.Version)
	}
	start := time.Now()
	for _, f := range p.subs {
		f(snap)
	}
	p.cur.Store(snap)
	p.flipNS.Store(time.Since(start).Nanoseconds())
	p.lastVersion.Store(int64(snap.Version))
	return nil
}

// LastFlipNS returns the wall-clock nanoseconds the most recent Publish
// spent between seal and visibility (subscriber fan-out + pointer flip);
// 0 before the first publication.
func (p *Publisher) LastFlipNS() int64 { return p.flipNS.Load() }
