package store

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/dkv"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/transport"
)

// DKVStore implements PiStore over the distributed key-value store: every
// read is grouped by owning rank and issued as one request per peer. Like
// the paper's DKV it holds no copy of a remote row: each row is decoded with
// one copy from where it lies — the local shard, or the reply frame as it
// came off the wire — into the caller's Rows, and the frame goes back to the
// transport's pool. No concurrency control is needed, because within a
// phase the algorithm never reads a row it writes.
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

// ReadRows implements PiStore: the whole batch goes out as one batched DKV
// read (one request per owning peer), and each owner's share decodes in
// parallel straight into dst as it arrives — the local share from the shard,
// a remote share from its reply frame — with no intermediate copy.
func (s *DKVStore) ReadRows(ids []int32, dst *Rows) error {
	if err := checkIDs(ids, s.n); err != nil {
		return err
	}
	dst.Reset(len(ids), s.k)
	var errs errCollector
	err := s.kv.ReadEach(ids, func(v dkv.Values) {
		par.For(v.Len(), s.threads, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				i := v.Pos(j)
				sum, err := DecodeRow(v.Value(j), dst.PiRow(i))
				if err != nil {
					errs.set(fmt.Errorf("store: key %d: %w", ids[i], err))
					continue
				}
				dst.PhiSum[i] = sum
			}
		})
	})
	if err != nil {
		return err
	}
	return errs.get()
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
	buf := getEncodeBuf(len(ids) * rb)
	defer encodeBufs.Put(buf)
	values := *buf
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

// WritePiRows implements PiStore: already-normalised rows are encoded
// verbatim and committed like WriteRows' — the master of a distributed run
// restores every rank's shard through it.
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
	buf := getEncodeBuf(len(ids) * rb)
	defer encodeBufs.Put(buf)
	values := *buf
	for i := range ids {
		EncodeRowPi(values[i*rb:(i+1)*rb], pi[i*s.k:(i+1)*s.k], phiSum[i])
	}
	return s.kv.WriteBatch(ids, values)
}

// encodeBufs recycles the buffers rows are encoded into for a write. The DKV
// copies a batch into its requests before WriteBatch returns, so a buffer is
// free again as soon as the write is.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// getEncodeBuf returns a pooled buffer resliced to n bytes.
func getEncodeBuf(n int) *[]byte {
	buf := encodeBufs.Get().(*[]byte)
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return buf
}

// interface conformance
var _ PiStore = (*DKVStore)(nil)
