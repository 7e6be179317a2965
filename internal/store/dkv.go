package store

import (
	"fmt"

	"repro/internal/dkv"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/transport"
)

// DKVStore implements PiStore over the distributed key-value store: every
// read is grouped by owning rank and issued as one request per peer, and
// ReadRowsAsync exposes the DKV futures that the double-buffered update_phi
// pipeline overlaps with compute. Like the paper's DKV it holds no copy of a
// remote row: a read is one batched request decoded straight into the
// caller's Rows. No concurrency control is needed, because within a phase
// the algorithm never reads a row it writes.
type DKVStore struct {
	kv      *dkv.Store
	n, k    int
	threads int
}

// NewDKV creates the store (and its server goroutine) for this rank. The
// DKV traffic counters are registered in reg (nil falls back to a private
// registry), which is how a run's telemetry layer observes the store.
func NewDKV(conn transport.Conn, n, k, threads int, reg *obs.Registry) (*DKVStore, error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	kv, err := dkv.NewWithRegistry(conn, n, RowBytes(k), reg)
	if err != nil {
		return nil, err
	}
	return &DKVStore{kv: kv, n: n, k: k, threads: threads}, nil
}

// NumRows implements PiStore.
func (s *DKVStore) NumRows() int { return s.n }

// K implements PiStore.
func (s *DKVStore) K() int { return s.k }

// ReadsAreLocal implements LocalReader: reads stay in-process exactly when
// this rank owns every key, i.e. the Ranks=1 degenerate case. Multi-rank
// stores answer false and the φ stage keeps the fetch/compute overlap.
func (s *DKVStore) ReadsAreLocal() bool {
	lo, hi := s.kv.OwnedRange()
	return lo == 0 && hi == s.n
}

// SetTracer forwards span emission to the underlying DKV store — client
// response waits and the server request loop both (see dkv.Store.SetTracer).
func (s *DKVStore) SetTracer(tr *obs.Tracer) { s.kv.SetTracer(tr) }

// Close stops the server goroutine; the underlying transport stays open.
func (s *DKVStore) Close() error { return s.kv.Close() }

// InitOwned populates this rank's shard from a deterministic row
// initialiser: initRow fills pi (length K) for vertex a and returns Σφ_a.
func (s *DKVStore) InitOwned(initRow func(a int, pi []float32) float64) {
	lo, hi := s.kv.OwnedRange()
	row := make([]byte, RowBytes(s.k))
	pi := make([]float32, s.k)
	for a := lo; a < hi; a++ {
		phiSum := initRow(a, pi)
		EncodeRowPi(row, pi, phiSum)
		s.kv.WriteLocal(a, row)
	}
}

// dkvPending finishes an asynchronous read: waits for the DKV future, then
// decodes the fetched wire rows into the destination buffer in parallel.
type dkvPending struct {
	store *DKVStore
	fut   *dkv.Future
	dst   *Rows
	ids   []int32 // ids[i] was fetched into raw row i and lands in dst row i
	done  bool
	err   error
}

func (p *dkvPending) Wait() error {
	if p.done {
		return p.err
	}
	p.done = true
	if p.err = p.fut.Wait(); p.err != nil {
		return p.err
	}
	rb := RowBytes(p.store.k)
	raw := p.dst.raw
	var errs errCollector
	par.For(len(p.ids), p.store.threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum, err := DecodeRow(raw[i*rb:(i+1)*rb], p.dst.PiRow(i))
			if err != nil {
				errs.set(fmt.Errorf("store: key %d: %w", p.ids[i], err))
				continue
			}
			p.dst.PhiSum[i] = sum
		}
	})
	p.err = errs.get()
	return p.err
}

// ReadRowsAsync implements PiStore: the whole batch goes out as one batched
// DKV read (one request per owning peer) whose future the returned Pending
// wraps.
func (s *DKVStore) ReadRowsAsync(ids []int32, dst *Rows) (Pending, error) {
	if err := checkIDs(ids, s.n); err != nil {
		return nil, err
	}
	dst.Reset(len(ids), s.k)
	need := len(ids) * RowBytes(s.k)
	if cap(dst.raw) < need {
		dst.raw = make([]byte, need)
	}
	dst.raw = dst.raw[:need]
	fut, err := s.kv.ReadBatchAsync(ids, dst.raw)
	if err != nil {
		return nil, err
	}
	return &dkvPending{store: s, fut: fut, dst: dst, ids: ids}, nil
}

// ReadRows implements PiStore (the synchronous form).
func (s *DKVStore) ReadRows(ids []int32, dst *Rows) error {
	p, err := s.ReadRowsAsync(ids, dst)
	if err != nil {
		return err
	}
	return p.Wait()
}

// WriteRows implements PiStore: rows are encoded in parallel and committed
// through one batched, acknowledged DKV write.
func (s *DKVStore) WriteRows(ids []int32, phi []float64) error {
	if len(phi) != len(ids)*s.k {
		return fmt.Errorf("store: phi has %d values, want %d", len(phi), len(ids)*s.k)
	}
	if err := checkIDs(ids, s.n); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	rb := RowBytes(s.k)
	values := make([]byte, len(ids)*rb)
	var errs errCollector
	par.For(len(ids), s.threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := EncodeRow(values[i*rb:(i+1)*rb], phi[i*s.k:(i+1)*s.k]); err != nil {
				errs.set(fmt.Errorf("store: vertex %d: %w", ids[i], err))
			}
		}
	})
	if err := errs.get(); err != nil {
		return err
	}
	return s.kv.WriteBatch(ids, values)
}

// WritePiRows implements PiWriter: already-normalised rows are encoded
// verbatim and committed like WriteRows' — the restore path of a streamed
// checkpoint load, which the master of a distributed run drives for every
// rank's shard.
func (s *DKVStore) WritePiRows(ids []int32, pi []float32, phiSum []float64) error {
	if len(pi) != len(ids)*s.k || len(phiSum) != len(ids) {
		return fmt.Errorf("store: pi/phiSum have %d/%d values, want %d/%d",
			len(pi), len(phiSum), len(ids)*s.k, len(ids))
	}
	if err := checkIDs(ids, s.n); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	rb := RowBytes(s.k)
	values := make([]byte, len(ids)*rb)
	for i := range ids {
		EncodeRowPi(values[i*rb:(i+1)*rb], pi[i*s.k:(i+1)*s.k], phiSum[i])
	}
	return s.kv.WriteBatch(ids, values)
}

// Flush implements PiStore. Writes are already acknowledged by WriteRows and
// the store keeps no copy of a remote row, so the barrier has nothing to
// drop; global visibility is the caller's collective barrier, which this
// accompanies.
func (s *DKVStore) Flush() error { return nil }

// interface conformance
var (
	_ PiStore     = (*DKVStore)(nil)
	_ LocalReader = (*DKVStore)(nil)
	_ PiWriter    = (*DKVStore)(nil)
)
