// Package store defines the unified parameter-store abstraction both
// samplers run against: a PiStore holds the per-vertex π rows and Σφ sums
// (the paper's "π[i] + Σφ[i] is the value for key i") behind one batched
// read/write contract, so the phase layer in internal/core is written once
// and wired to either backend.
//
// Two backends implement the contract:
//
//   - LocalStore views a single-node core.State's backing slices. Reads and
//     writes are plain memory copies; Flush is a no-op. It makes the
//     single-process sampler the Ranks=1 degenerate case of the distributed
//     one.
//   - DKVStore (dkv.go) wraps internal/dkv: batched reads grouped by owning
//     rank, asynchronous futures for the double-buffered π pipeline of
//     Section III-D, and an optional bounded hot-row cache that is
//     invalidated at every phase barrier.
//
// The whole table leaves a store through one path, Sweep (snapshots,
// checkpoints, the distributed end-of-run gather), and enters it through
// one, PiWriter (checkpoint restore), both in BatchRows batches on every
// backend — the mmap and tiered backends of mmap.go and tier.go included.
//
// Bit-exactness contract: WriteRows on every backend performs the exact
// normalisation arithmetic of core.State.SetPhiRow (sum in slice order,
// inv = 1/sum, float32(v·inv)), and reads return float32/float64 values
// unchanged, so the two backends produce bit-identical trajectories from
// identical inputs.
package store

import (
	"errors"
	"fmt"
	"math"
	"sync"

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
var (
	ErrDegenerateRow = errors.New("degenerate phi row")
	ErrShortRow      = errors.New("short row value")
)

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
// Reset calls, which is what lets the double-buffered pipeline run without
// per-chunk allocation.
type Rows struct {
	K      int
	Pi     []float32 // row-major, Len()×K
	PhiSum []float64 // one Σφ per row

	raw []byte // backend scratch (wire bytes), reused between reads
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

// Pending is an in-flight asynchronous read. Wait blocks until the
// destination Rows buffer is fully populated; it is idempotent, and the
// buffer must not be touched before Wait returns.
type Pending interface {
	Wait() error
}

// PiStore is the parameter-store contract the shared phase layer is written
// against. Keys are vertex ids in [0, NumRows).
//
// Consistency follows the paper's phase discipline: within a phase, read
// sets and write sets never overlap, so no concurrency control is needed.
// Flush marks a phase barrier — after Flush returns, rows written before it
// are what subsequent reads observe, and any caching that spanned the phase
// is invalidated. Callers that also require cross-rank visibility (the
// distributed engine) pair Flush with their collective barrier.
type PiStore interface {
	// NumRows returns the total key count N.
	NumRows() int
	// K returns the row width.
	K() int
	// ReadRows fills dst with the current rows for ids.
	ReadRows(ids []int32, dst *Rows) error
	// ReadRowsAsync begins a batched read into dst and returns a Pending;
	// dst must stay untouched until Wait returns. This is the prefetch
	// primitive behind the double-buffered update_phi pipeline.
	ReadRowsAsync(ids []int32, dst *Rows) (Pending, error)
	// WriteRows stores the φ rows (len(ids)·K float64 values, row-major),
	// normalising each to π/Σφ with SetPhiRow's exact arithmetic.
	WriteRows(ids []int32, phi []float64) error
	// Flush marks a phase barrier (see the interface comment).
	Flush() error
}

// LocalReader is an optional PiStore capability: backends whose reads are
// answered from local memory (no transport round trip) report it, and the φ
// stage uses the answer to pick its schedule — a pipeline that overlaps
// fetches with compute only pays off when fetches actually leave the
// process, so local readers get the fused serial path instead.
type LocalReader interface {
	// ReadsAreLocal reports whether every ReadRows/ReadRowsAsync on this
	// store completes without remote communication.
	ReadsAreLocal() bool
}

// ReadsAreLocal reports the LocalReader answer for ps, defaulting to false
// (assume remote) for backends that don't implement the capability.
func ReadsAreLocal(ps PiStore) bool {
	lr, ok := ps.(LocalReader)
	return ok && lr.ReadsAreLocal()
}

// RowBytes is the wire size of one vertex's value: K float32 π entries plus
// the float64 Σφ.
func RowBytes(k int) int { return 4*k + 8 }

// PiWriter is an optional PiStore capability: backends that can store
// already-normalised (π, Σφ) rows verbatim — no SetPhiRow renormalisation —
// implement it. It is the restore primitive behind streamed checkpoint loads
// and initial population, where the values on disk ARE the quantised rows and
// must land bit-identically.
type PiWriter interface {
	// WritePiRows stores len(ids) rows: pi is row-major len(ids)×K, phiSum
	// one Σφ per row.
	WritePiRows(ids []int32, pi []float32, phiSum []float64) error
}

// BatchRows bounds one batch of a whole-table sweep or restore: 4096 rows ≈
// 2 MB at K=128, small enough that saving, sealing or restoring a
// larger-than-RAM table holds one batch at a time. Every whole-table path —
// Sweep, and the checkpoint reader in internal/core — uses this one size.
const BatchRows = 4096

// Sweep reads rows [0, N) of ps in order, BatchRows at a time, through
// ReadRows — caches included — and hands each batch to visit with the id of
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
	var sum float64
	for _, v := range phi {
		sum += v
	}
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
// population from core.InitPiRow.
func EncodeRowPi(dst []byte, pi []float32, phiSum float64) {
	off := 0
	for _, v := range pi {
		putF32(dst[off:], v)
		off += 4
	}
	putF64(dst[off:], phiSum)
}

// DecodeRow splits a wire value into its π row (into pi, length K) and
// returns Σφ. A buffer shorter than RowBytes(K) — a truncated DKV response or
// a torn shard file — fails with ErrShortRow instead of indexing past src.
func DecodeRow(src []byte, pi []float32) (float64, error) {
	if len(src) < RowBytes(len(pi)) {
		return 0, fmt.Errorf("%w: %d bytes, need %d for K=%d",
			ErrShortRow, len(src), RowBytes(len(pi)), len(pi))
	}
	off := 0
	for i := range pi {
		pi[i] = getF32(src[off:])
		off += 4
	}
	return getF64(src[off:]), nil
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

func putF64(b []byte, v float64) {
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

func getF64(b []byte) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return math.Float64frombits(u)
}

// LocalStore implements PiStore over the backing slices of a single-node
// core.State. It is constructed per use (a cheap slice-header struct) so a
// resumed sampler that swaps its State never reads through a stale view.
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

// donePending is the immediately-complete Pending of a synchronous read.
type donePending struct{ err error }

func (p donePending) Wait() error { return p.err }

// ReadRowsAsync implements PiStore; local reads complete immediately.
func (s *LocalStore) ReadRowsAsync(ids []int32, dst *Rows) (Pending, error) {
	err := s.ReadRows(ids, dst)
	if err != nil {
		return nil, err
	}
	return donePending{}, nil
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
			row := phi[i*s.k : (i+1)*s.k]
			var sum float64
			for _, v := range row {
				sum += v
			}
			if err := checkRowSum(sum); err != nil {
				errs.set(fmt.Errorf("store: vertex %d: %w", ids[i], err))
				continue
			}
			a := int(ids[i])
			s.phiSum[a] = sum
			dst := s.pi[a*s.k : (a+1)*s.k]
			inv := 1 / sum
			for j, v := range row {
				dst[j] = float32(v * inv)
			}
		}
	})
	return errs.get()
}

// WritePiRows implements PiWriter: already-normalised rows are stored as is
// (plain copies, no renormalisation) — the restore path of a streamed
// checkpoint load.
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

// Flush implements PiStore; in-memory writes are immediately visible.
func (s *LocalStore) Flush() error { return nil }

// ReadsAreLocal implements LocalReader: every read is a memory copy.
func (s *LocalStore) ReadsAreLocal() bool { return true }

// interface conformance
var (
	_ PiStore     = (*LocalStore)(nil)
	_ LocalReader = (*LocalStore)(nil)
	_ PiWriter    = (*LocalStore)(nil)
)
