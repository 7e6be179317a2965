// Package store defines the unified parameter-store abstraction both
// samplers run against: a PiStore holds the per-vertex π rows and Σφ sums
// (the paper's "π[i] + Σφ[i] is the value for key i") behind one batched,
// synchronous read/write contract, so the phase layer in internal/core is
// written once and wired to any backend.
//
// Three backends implement the contract:
//
//   - LocalStore views a single-node core.State's backing slices. Reads and
//     writes are plain memory copies. It makes the single-process sampler
//     the Ranks=1 degenerate case of the distributed one.
//   - DKVStore (dkv.go) wraps internal/dkv over a partition that is itself
//     a PiStore (the rows the rank owns): a batched read is one request per
//     owning peer, decoded straight into the caller's Rows, while the owned
//     share is read from the partition. It holds no copy of a remote row.
//   - MmapStore (mmap.go) keeps the table on disk as memory-mapped shard
//     files: the out-of-core path.
//
// TieredStore (tier.go) is a pass-through shim over one of them, kept for
// the benchmark module's calls.
//
// The whole table leaves a store through one path, Sweep (snapshots,
// checkpoints, the distributed end-of-run gather), and enters it through
// one, WritePiRows (checkpoint restore), both in BatchRows batches on every
// backend.
//
// Bit-exactness contract: WriteRows on every backend performs the exact
// normalisation arithmetic of core.State.SetPhiRow (sum in slice order,
// inv = 1/sum, float32(v·inv)), and reads return float32/float64 values
// unchanged, so every backend produces bit-identical trajectories from
// identical inputs.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"repro/internal/par"
)

// Typed row-codec failures, matchable with errors.Is:
//
//   - ErrDegenerateRow: a φ row whose sum is zero or non-finite. Dividing by
//     it would write NaN/±Inf π that silently poisons every later read — the
//     store surfaces the row instead of normalising it. WriteRows on every
//     backend wraps this with the offending vertex id.
//   - ErrShortRow: a wire/file value shorter than RowBytes(K) — a truncated
//     DKV response or a torn shard file. Decoding it would index past the
//     buffer; the store returns the typed error instead of panicking.
//   - ErrMmapFormat: an mmap store directory whose MANIFEST or shard headers
//     cannot describe a table (bad JSON, dimensions out of bounds, a shard
//     list that disagrees with them, a header for another shard).
var (
	ErrDegenerateRow = errors.New("degenerate phi row")
	ErrShortRow      = errors.New("short row value")
	ErrMmapFormat    = errors.New("not a valid mmap π store")
)

// MaxRows and MaxK bound the table a stored header may claim — the
// checkpoint header and the mmap MANIFEST alike — so a reader refuses an
// absurd claim before it sizes anything from it.
const (
	MaxRows = 1 << 31
	MaxK    = 1 << 24
)

// rowSum is Σφ of a row, summed in slice order as core.State.SetPhiRow sums
// it.
func rowSum(phi []float64) float64 {
	var sum float64
	for _, v := range phi {
		sum += v
	}
	return sum
}

// normalise writes π = φ/Σφ into pi with SetPhiRow's arithmetic and returns
// Σφ; a degenerate sum fails with ErrDegenerateRow and leaves pi untouched.
func normalise(pi []float32, phi []float64) (float64, error) {
	sum := rowSum(phi)
	if err := checkRowSum(sum); err != nil {
		return sum, err
	}
	inv := 1 / sum
	for j, v := range phi {
		pi[j] = float32(v * inv)
	}
	return sum, nil
}

// checkRowSum validates a φ row sum before it becomes a divisor; the error
// wraps ErrDegenerateRow.
func checkRowSum(sum float64) error {
	if sum == 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return fmt.Errorf("%w: Σφ = %v", ErrDegenerateRow, sum)
	}
	return nil
}

// Rows is the decoded destination buffer for a batched read: n π rows of K
// float32 entries each, plus the matching Σφ sums. Buffers are reused across
// Reset calls, which is what lets the double-buffered φ stage run without
// per-chunk allocation.
type Rows struct {
	K      int
	Pi     []float32 // row-major, Len()×K
	PhiSum []float64 // one Σφ per row
}

// Reset sizes the buffer for n rows of width k, reusing capacity. Every
// backend's ReadRows resets dst and then fills it in place, so a buffer whose
// Pi already has the capacity is written where it lies — which is how Sweep
// lands rows straight in a caller's slab.
func (r *Rows) Reset(n, k int) {
	r.K = k
	if cap(r.Pi) < n*k {
		r.Pi = make([]float32, n*k)
	}
	r.Pi = r.Pi[:n*k]
	if cap(r.PhiSum) < n {
		r.PhiSum = make([]float64, n)
	}
	r.PhiSum = r.PhiSum[:n]
}

// PiRow returns row i as a slice into the buffer.
func (r *Rows) PiRow(i int) []float32 { return r.Pi[i*r.K : (i+1)*r.K] }

// PiStore is the parameter-store contract the shared phase layer is written
// against. Keys are vertex ids in [0, NumRows).
//
// Every call is synchronous: when it returns, the rows are read or written.
// Consistency follows the paper's phase discipline: within a phase, read
// sets and write sets never overlap, so no concurrency control is needed,
// and no backend keeps a row copy a phase barrier would have to drop.
// Callers that need cross-rank visibility (the distributed engine) fence
// the phases with their collective barrier.
type PiStore interface {
	// NumRows returns the total key count N.
	NumRows() int
	// K returns the row width.
	K() int
	// ReadRows fills dst with the current rows for ids.
	ReadRows(ids []int32, dst *Rows) error
	// WriteRows stores the φ rows (len(ids)·K float64 values, row-major),
	// normalising each to π/Σφ with SetPhiRow's exact arithmetic.
	WriteRows(ids []int32, phi []float64) error
	// WritePiRows stores already-normalised rows verbatim, with no
	// renormalisation: pi is row-major len(ids)×K, phiSum one Σφ per row.
	// It is the restore primitive behind streamed checkpoint loads, where
	// the values on disk are the quantised rows and must land
	// bit-identically.
	WritePiRows(ids []int32, pi []float32, phiSum []float64) error
}

// RowBytes is the wire size of one vertex's value: K float32 π entries plus
// the float64 Σφ.
func RowBytes(k int) int { return 4*k + 8 }

// BatchRows bounds one batch of a whole-table sweep or restore: 4096 rows ≈
// 2 MB at K=128, small enough that saving, sealing or restoring a
// larger-than-RAM table holds one batch at a time. Every whole-table path —
// Sweep, and the checkpoint reader in internal/core — uses this one size.
const BatchRows = 4096

// Sweep reads rows [0, N) of ps in order, BatchRows at a time, through
// ReadRows and hands each batch to visit with the id of
// its first row (visit may be nil). When pi is non-nil it must be N×K long,
// and each batch's π rows land straight in pi[lo*K : hi*K] instead of a
// reused buffer, so a snapshot or gather copies every row once. It is the one
// whole-table read path: snapshots (TakeSnapshot), checkpoints
// (core.SaveStore) and the distributed end-of-run gather all run on it. Call
// it at a phase barrier, with no writes in flight.
func Sweep(ps PiStore, pi []float32, visit func(lo int, rows *Rows) error) error {
	n, k := ps.NumRows(), ps.K()
	if pi != nil && len(pi) != n*k {
		return fmt.Errorf("store: sweep slab has %d values, table is %d×%d", len(pi), n, k)
	}
	ids := make([]int32, 0, BatchRows)
	var rows Rows
	for lo := 0; lo < n; lo += BatchRows {
		hi := min(lo+BatchRows, n)
		ids = ids[:0]
		for a := lo; a < hi; a++ {
			ids = append(ids, int32(a))
		}
		if pi != nil {
			rows.Pi = pi[lo*k : hi*k : hi*k] // ReadRows' Reset keeps it: rows land in place
		}
		if err := ps.ReadRows(ids, &rows); err != nil {
			return fmt.Errorf("store: sweep at row %d: %w", lo, err)
		}
		if visit != nil {
			if err := visit(lo, &rows); err != nil {
				return err
			}
		}
	}
	return nil
}

// errCollector keeps the first error reported from a parallel loop.
type errCollector struct {
	mu  sync.Mutex
	err error
}

func (e *errCollector) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *errCollector) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// EncodeRow writes π (derived from phi) and Σφ into dst (RowBytes long),
// mirroring core.State.SetPhiRow's arithmetic so all backends quantise to
// float32 identically. A zero or non-finite Σφ is refused with
// ErrDegenerateRow (dst is left untouched) instead of silently writing
// NaN/±Inf π.
func EncodeRow(dst []byte, phi []float64) error {
	sum := rowSum(phi)
	if err := checkRowSum(sum); err != nil {
		return err
	}
	inv := 1 / sum
	off := 0
	for _, v := range phi {
		putF32(dst[off:], float32(v*inv))
		off += 4
	}
	putF64(dst[off:], sum)
	return nil
}

// EncodeRowPi writes an already-normalised π row plus Σφ; used for initial
// population from core.InitPiRow and for verbatim restores. On a
// little-endian host the π bytes are one copy (see DecodeRow).
func EncodeRowPi(dst []byte, pi []float32, phiSum float64) {
	n := 4 * len(pi)
	if hostLittleEndian {
		copy(dst[:n], float32Bytes(pi))
	} else {
		encodePiPortable(dst, pi)
	}
	putF64(dst[n:], phiSum)
}

// DecodeRow splits a wire value into its π row (into pi, length K) and
// returns Σφ. A buffer shorter than RowBytes(K) — a truncated DKV response or
// a torn shard file — fails with ErrShortRow instead of indexing past src.
//
// The wire is little-endian, so on a little-endian host the π section is
// already the in-memory layout of []float32: it lands with one copy into pi
// viewed as bytes. The view always goes from the aligned float32 side to
// bytes, never the other way, so src may sit at any offset of a DKV response
// or a shard mapping. Other hosts take the portable per-value loop.
func DecodeRow(src []byte, pi []float32) (float64, error) {
	n := 4 * len(pi)
	if len(src) < n+8 {
		return 0, fmt.Errorf("%w: %d bytes, need %d for K=%d",
			ErrShortRow, len(src), RowBytes(len(pi)), len(pi))
	}
	if hostLittleEndian {
		copy(float32Bytes(pi), src[:n])
	} else {
		decodePiPortable(src, pi)
	}
	return getF64(src[n:]), nil
}

// hostLittleEndian reports whether float32 memory is already wire order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float32Bytes views v's memory as its 4·len(v) bytes.
func float32Bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// encodePiPortable writes pi as little-endian float32 values at the front of
// dst, one value at a time: the big-endian path, and the oracle the one-copy
// codec is tested against.
func encodePiPortable(dst []byte, pi []float32) {
	off := 0
	for _, v := range pi {
		putF32(dst[off:], v)
		off += 4
	}
}

// decodePiPortable is encodePiPortable's inverse.
func decodePiPortable(src []byte, pi []float32) {
	off := 0
	for i := range pi {
		pi[i] = getF32(src[off:])
		off += 4
	}
}

func putF32(b []byte, v float32) {
	u := math.Float32bits(v)
	b[0] = byte(u)
	b[1] = byte(u >> 8)
	b[2] = byte(u >> 16)
	b[3] = byte(u >> 24)
}

func getF32(b []byte) float32 {
	u := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return math.Float32frombits(u)
}

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// LocalStore implements PiStore over the backing slices of a single-node
// core.State.
type LocalStore struct {
	k       int
	pi      []float32
	phiSum  []float64
	threads int
}

// NewLocal views the given state slices as a PiStore. pi must be row-major
// with len(phiSum) rows of width k.
func NewLocal(pi []float32, phiSum []float64, k, threads int) *LocalStore {
	return &LocalStore{k: k, pi: pi, phiSum: phiSum, threads: threads}
}

// NumRows implements PiStore.
func (s *LocalStore) NumRows() int { return len(s.phiSum) }

// K implements PiStore.
func (s *LocalStore) K() int { return s.k }

// checkIDs is the range check every backend runs before it touches a row: a
// key outside [0, n) is an error to the caller, never a panic.
func checkIDs(ids []int32, n int) error {
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("store: key %d out of range [0,%d)", id, n)
		}
	}
	return nil
}

// ReadRows implements PiStore with plain memory copies (float32/float64
// copies are bit-exact).
func (s *LocalStore) ReadRows(ids []int32, dst *Rows) error {
	if err := checkIDs(ids, len(s.phiSum)); err != nil {
		return err
	}
	dst.Reset(len(ids), s.k)
	par.For(len(ids), s.threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a := int(ids[i])
			copy(dst.PiRow(i), s.pi[a*s.k:(a+1)*s.k])
			dst.PhiSum[i] = s.phiSum[a]
		}
	})
	return nil
}

// WriteRows implements PiStore with core.State.SetPhiRow's arithmetic. A
// degenerate row (zero or non-finite Σφ) fails with ErrDegenerateRow naming
// the vertex; the degenerate row itself is not written, so the store never
// holds NaN/±Inf π.
func (s *LocalStore) WriteRows(ids []int32, phi []float64) error {
	if len(phi) != len(ids)*s.k {
		return fmt.Errorf("store: phi has %d values, want %d", len(phi), len(ids)*s.k)
	}
	if err := checkIDs(ids, len(s.phiSum)); err != nil {
		return err
	}
	var errs errCollector
	par.For(len(ids), s.threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a := int(ids[i])
			sum, err := normalise(s.pi[a*s.k:(a+1)*s.k], phi[i*s.k:(i+1)*s.k])
			if err != nil {
				errs.set(fmt.Errorf("store: vertex %d: %w", ids[i], err))
				continue
			}
			s.phiSum[a] = sum
		}
	})
	return errs.get()
}

// WritePiRows implements PiStore with plain copies.
func (s *LocalStore) WritePiRows(ids []int32, pi []float32, phiSum []float64) error {
	if len(pi) != len(ids)*s.k || len(phiSum) != len(ids) {
		return fmt.Errorf("store: pi/phiSum have %d/%d values, want %d/%d",
			len(pi), len(phiSum), len(ids)*s.k, len(ids))
	}
	if err := checkIDs(ids, len(s.phiSum)); err != nil {
		return err
	}
	for i, id := range ids {
		a := int(id)
		copy(s.pi[a*s.k:(a+1)*s.k], pi[i*s.k:(i+1)*s.k])
		s.phiSum[a] = phiSum[i]
	}
	return nil
}

// interface conformance
var _ PiStore = (*LocalStore)(nil)
