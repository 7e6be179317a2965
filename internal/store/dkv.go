package store

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dkv"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/transport"
)

// DKVStore implements PiStore over the distributed key-value store. The
// rows a rank owns, [lo, hi), are an ordinary PiStore — its partition — and
// the DKV moves every other row, one request per owning peer. A read's
// owned share comes from the partition's ReadRows with no codec, and a batch
// the rank owns entirely (every read at one rank) lands straight in the
// caller's Rows; each remote share is decoded with one copy from its reply
// frame, which then goes back to the transport's pool. Like the paper's DKV
// it holds no copy of a remote row. The server answers peers from the same
// partition: it encodes replies from its ReadRows and applies writes with
// its WritePiRows. No concurrency control is needed, because within a phase
// the algorithm never reads a row it writes.
type DKVStore struct {
	kv      *dkv.Store
	owned   PiStore // the partition: global row a is its row a − lo
	lo, hi  int
	n, k    int
	threads int
}

// NewDKV creates the store (and its server goroutine) for this rank over
// owned, its partition: a PiStore of the hi−lo rows of width k that
// dkv.Range(n, size, rank) assigns it — a LocalStore filled with the initial
// rows, or an MmapStore — holding global row a as its row a − lo. The DKV
// traffic counters are registered in reg (nil falls back to a private
// registry), which is how a run's telemetry layer observes the store.
func NewDKV(conn transport.Conn, n, k, threads int, reg *obs.Registry, owned PiStore) (*DKVStore, error) {
	lo, hi := dkv.Range(n, conn.Size(), conn.Rank())
	if owned.NumRows() != hi-lo || owned.K() != k {
		return nil, fmt.Errorf("store: partition is %d×%d, want %d×%d", owned.NumRows(), owned.K(), hi-lo, k)
	}
	s := &DKVStore{owned: owned, lo: lo, hi: hi, n: n, k: k, threads: threads}
	kv, err := dkv.NewPartitioned(conn, n, RowBytes(k), reg, &servedRows{s: s})
	if err != nil {
		return nil, err
	}
	s.kv = kv
	return s, nil
}

// NumRows implements PiStore.
func (s *DKVStore) NumRows() int { return s.n }

// K implements PiStore.
func (s *DKVStore) K() int { return s.k }

// SetTracer forwards span emission to the underlying DKV store — client
// response waits and the server request loop both (see dkv.Store.SetTracer).
func (s *DKVStore) SetTracer(tr *obs.Tracer) { s.kv.SetTracer(tr) }

// Close stops the server goroutine; the transport and the partition stay
// open.
func (s *DKVStore) Close() error { return s.kv.Close() }

// ownedIDs maps global keys to the partition's row ids, in buf unless the
// partition starts at row 0.
func (s *DKVStore) ownedIDs(keys []int32, buf *[]int32) []int32 {
	if s.lo == 0 {
		return keys
	}
	*buf = (*buf)[:0]
	for _, a := range keys {
		*buf = append(*buf, a-int32(s.lo))
	}
	return *buf
}

// readOwned reads the partition's rows for the global keys into sc.rows,
// BatchRows at a time, so a large batch holds one chunk of scratch, and
// hands each chunk to visit with the offset in keys of its first row.
func (s *DKVStore) readOwned(keys []int32, sc *scratch, visit func(off int)) error {
	for off := 0; off < len(keys); off += BatchRows {
		chunk := keys[off:min(off+BatchRows, len(keys))]
		if err := s.owned.ReadRows(s.ownedIDs(chunk, &sc.ids), &sc.rows); err != nil {
			return err
		}
		visit(off)
	}
	return nil
}

// scratch is one call's working memory: partition ids, owned rows and
// encoded remote values.
type scratch struct {
	ids    []int32
	rows   Rows
	values []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// ReadRows implements PiStore: the whole batch goes out as one batched DKV
// read. The owned share is read from the partition while the requests are
// in flight, and each remote share decodes in parallel straight into dst as
// it arrives.
func (s *DKVStore) ReadRows(ids []int32, dst *Rows) error {
	if err := checkIDs(ids, s.n); err != nil {
		return err
	}
	dst.Reset(len(ids), s.k)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	var errs errCollector
	err := s.kv.Read(ids, func(keys, pos []int32) error {
		if pos == nil {
			return s.owned.ReadRows(s.ownedIDs(keys, &sc.ids), dst)
		}
		return s.readOwned(keys, sc, func(off int) {
			par.For(len(sc.rows.PhiSum), s.threads, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					p := pos[off+j]
					copy(dst.PiRow(int(p)), sc.rows.PiRow(j))
					dst.PhiSum[p] = sc.rows.PhiSum[j]
				}
			})
		})
	}, func(pos []int32, values []byte) {
		rb := RowBytes(s.k)
		par.For(len(pos), s.threads, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				i := int(pos[j])
				sum, err := DecodeRow(values[j*rb:(j+1)*rb], dst.PiRow(i))
				if err != nil {
					errs.set(fmt.Errorf("store: key %d: %w", ids[i], err))
				}
				dst.PhiSum[i] = sum
			}
		})
	})
	return errors.Join(err, errs.get())
}

// WriteRows implements PiStore: the rows are normalised in parallel with
// SetPhiRow's arithmetic and stored through WritePiRows. A degenerate row
// (zero or non-finite Σφ) is left out, so, as on every backend, the valid
// rows are written and the first error names the vertex.
func (s *DKVStore) WriteRows(ids []int32, phi []float64) error {
	k := s.k
	if len(phi) != len(ids)*k {
		return fmt.Errorf("store: phi has %d values, want %d", len(phi), len(ids)*k)
	}
	if err := checkIDs(ids, s.n); err != nil {
		return err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	rows := &sc.rows
	rows.Reset(len(ids), k)
	var errs errCollector
	par.For(len(ids), s.threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum, err := normalise(rows.PiRow(i), phi[i*k:(i+1)*k])
			if err != nil {
				errs.set(fmt.Errorf("store: vertex %d: %w", ids[i], err))
			}
			rows.PhiSum[i] = sum
		}
	})
	bad := errs.get()
	if bad == nil {
		return s.WritePiRows(ids, rows.Pi, rows.PhiSum)
	}
	var valid []int32
	var pi []float32
	var phiSum []float64
	for i, sum := range rows.PhiSum {
		if checkRowSum(sum) == nil {
			valid, pi, phiSum = append(valid, ids[i]), append(pi, rows.PiRow(i)...), append(phiSum, sum)
		}
	}
	return errors.Join(bad, s.WritePiRows(valid, pi, phiSum))
}

// WritePiRows implements PiStore: already-normalised rows land verbatim,
// the owned ones through the partition's WritePiRows and the rest encoded
// into one batched, acknowledged DKV write — the master of a distributed
// run restores every rank's partition through it.
func (s *DKVStore) WritePiRows(ids []int32, pi []float32, phiSum []float64) error {
	k := s.k
	if len(pi) != len(ids)*k || len(phiSum) != len(ids) {
		return fmt.Errorf("store: pi/phiSum have %d/%d values, want %d/%d",
			len(pi), len(phiSum), len(ids)*k, len(ids))
	}
	if err := checkIDs(ids, s.n); err != nil {
		return err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	rb := RowBytes(k)
	sc.values = slices.Grow(sc.values[:0], len(ids)*rb)[:len(ids)*rb]
	for i, a := range ids {
		if int(a) < s.lo || int(a) >= s.hi {
			EncodeRowPi(sc.values[i*rb:(i+1)*rb], pi[i*k:(i+1)*k], phiSum[i])
		}
	}
	return s.kv.Write(ids, sc.values, func(keys, pos []int32) error {
		if pos == nil {
			return s.owned.WritePiRows(s.ownedIDs(keys, &sc.ids), pi, phiSum)
		}
		for j, p := range pos { // a mixed batch's owned rows, one at a time
			err := s.owned.WritePiRows(s.ownedIDs(keys[j:j+1], &sc.ids), pi[int(p)*k:int(p+1)*k], phiSum[p:p+1])
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// servedRows is the dkv.Partition the server answers peers from: the
// partition's rows in the wire layout. DKVStore never calls ReadBatch or
// WriteBatch, so only the server goroutine calls in, and its scratch needs
// no lock.
type servedRows struct {
	s *DKVStore
	scratch
}

// AppendValues implements dkv.Partition: the rows are read from the
// partition a chunk at a time and encoded onto dst.
func (p *servedRows) AppendValues(dst []byte, keys []int32) ([]byte, error) {
	rb := RowBytes(p.s.k)
	err := p.s.readOwned(keys, &p.scratch, func(int) {
		off, m := len(dst), len(p.rows.PhiSum)
		dst = slices.Grow(dst, m*rb)[:off+m*rb]
		for i := range m {
			EncodeRowPi(dst[off+i*rb:], p.rows.PiRow(i), p.rows.PhiSum[i])
		}
	})
	return dst, err
}

// ApplyValues implements dkv.Partition: the values are decoded and written
// verbatim with the partition's WritePiRows.
func (p *servedRows) ApplyValues(keys []int32, values []byte) error {
	rb := RowBytes(p.s.k)
	p.rows.Reset(len(keys), p.s.k)
	for i := range keys {
		sum, err := DecodeRow(values[i*rb:(i+1)*rb], p.rows.PiRow(i))
		if err != nil {
			return err
		}
		p.rows.PhiSum[i] = sum
	}
	return p.s.owned.WritePiRows(p.s.ownedIDs(keys, &p.ids), p.rows.Pi, p.rows.PhiSum)
}

// interface conformance
var _ PiStore = (*DKVStore)(nil)
