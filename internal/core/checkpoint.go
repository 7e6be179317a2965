package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/store"
	"repro/internal/wire"
)

// Checkpointing: the paper's convergence runs take hours (Figure 6 reports
// 40-hour trainings); production use needs to persist and resume the chain.
// The format is a small header plus the raw state arrays, little-endian.

const (
	checkpointMagic   = 0x616d6d5362303031 // "ammSb001"
	checkpointVersion = 1
)

// Typed checkpoint failures, matchable with errors.Is:
//
//   - ErrCheckpointTruncated: the file ends before the arrays the header
//     promises (a crash mid-write, a partial copy). SaveStoreFile's write-then-
//     rename makes this impossible for its own output, so a truncated file
//     means the bytes were damaged after the fact.
//   - ErrCheckpointShape: the file is well-formed but its (N, K) do not
//     match the run it is being loaded into — the wrong graph or the wrong
//     -k, caught before any state is overwritten.
//   - ErrCheckpointFormat: the bytes are not a checkpoint this reader knows —
//     wrong magic, an unsupported version, impossible dimensions, or bytes
//     past the arrays the header promises.
var (
	ErrCheckpointTruncated = errors.New("checkpoint truncated")
	ErrCheckpointShape     = errors.New("checkpoint shape mismatch")
	ErrCheckpointFormat    = errors.New("not a valid checkpoint")
)

// truncated wraps an io.ReadFull failure on a checkpoint section: running
// out of bytes is ErrCheckpointTruncated; anything else (an I/O fault)
// passes through.
func truncated(section string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("core: checkpoint %s: %w: %v", section, ErrCheckpointTruncated, err)
	}
	return fmt.Errorf("core: checkpoint %s: %w", section, err)
}

// CheckResumeIter rejects a checkpoint at iteration iter that the absolute
// iteration target (-iters) leaves nothing to train from; the distributed
// engine applies it to every resume, at any -ranks.
func CheckResumeIter(iter, target int) error {
	if iter < 0 || iter >= target {
		return fmt.Errorf("checkpoint is at iteration %d, at or past -iters %d", iter, target)
	}
	return nil
}

// checkpointHeaderLen is the fixed header: magic, version, N, K, iteration.
const checkpointHeaderLen = 28

// appendHeader is the one encoder of the checkpoint header.
func appendHeader(hdr []byte, n, k, iteration int) []byte {
	hdr = wire.AppendUint64(hdr, checkpointMagic)
	hdr = wire.AppendUint32(hdr, checkpointVersion)
	hdr = wire.AppendUint32(hdr, uint32(n))
	hdr = wire.AppendUint32(hdr, uint32(k))
	return wire.AppendUint64(hdr, uint64(iteration))
}

// parseHeader is the one decoder: it checks magic, version and the (N, K)
// range. The dimensions are still only a claim — restore compares them with
// the bytes actually present before anything is sized by them.
func parseHeader(hdr []byte) (n, k, iteration int, err error) {
	if wire.Uint64At(hdr, 0) != checkpointMagic {
		return 0, 0, 0, fmt.Errorf("core: %w: bad magic", ErrCheckpointFormat)
	}
	if v := wire.Uint32At(hdr, 8); v != checkpointVersion {
		return 0, 0, 0, fmt.Errorf("core: %w: version %d unsupported", ErrCheckpointFormat, v)
	}
	n, k, iteration = int(wire.Uint32At(hdr, 12)), int(wire.Uint32At(hdr, 16)), int(wire.Uint64At(hdr, 20))
	if n < 1 || k < 1 || n > store.MaxRows || k > store.MaxK {
		return 0, 0, 0, fmt.Errorf("core: %w: header claims N=%d K=%d", ErrCheckpointFormat, n, k)
	}
	return n, k, iteration, nil
}

// SaveStore is the checkpoint writer: it streams rows out of a π backend
// through store.Sweep in bounded batches, so the out-of-core save never
// materialises a second full copy of the table; an in-RAM State saves as a
// LocalStore view of its arrays. The iteration counter is stored so a
// resumed run continues the step-size schedule where it stopped. theta must
// be the 2K global parameter vector.
func SaveStore(w io.Writer, st store.PiStore, theta []float64, iteration int) error {
	n, k := st.NumRows(), st.K()
	if len(theta) != 2*k {
		return fmt.Errorf("core: θ has %d values, want %d", len(theta), 2*k)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(appendHeader(make([]byte, 0, checkpointHeaderLen), n, k, iteration)); err != nil {
		return err
	}
	// One sweep: π floats stream straight out; Σφ (8 bytes/vertex — tiny
	// next to the 4K bytes/vertex of π) is kept for the second section.
	sums := make([]float64, n)
	var buf []byte
	err := store.Sweep(st, nil, func(lo int, rows *store.Rows) error {
		buf = wire.AppendFloat32s(buf[:0], rows.Pi)
		copy(sums[lo:], rows.PhiSum)
		_, err := bw.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	for _, section := range [][]float64{sums, theta} {
		if _, err := bw.Write(wire.AppendFloat64s(buf[:0], section)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// restore is the checkpoint reader. It validates the header, then checks the
// arrays the header promises against size — the bytes actually present —
// before open is called, so nothing a loader allocates is sized by an
// unverified claim: a 28-byte file announcing 2^31 × 2^24 rows fails with
// ErrCheckpointTruncated, not an out-of-range make. open receives the
// verified (N, K) and returns where the rows go; the π and Σφ sections are
// then walked in lockstep, one bounded batch at a time, through its
// WritePiRows. Returns θ and the stored iteration.
func restore(r io.ReaderAt, size int64, open func(n, k int) (store.PiStore, error)) (theta []float64, iteration int, err error) {
	hdr := make([]byte, checkpointHeaderLen)
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, size), hdr); err != nil {
		return nil, 0, truncated("header", err)
	}
	n, k, iteration, err := parseHeader(hdr)
	if err != nil {
		return nil, 0, err
	}
	piOff := int64(checkpointHeaderLen)
	sumOff := piOff + int64(n)*int64(k)*4
	thetaOff := sumOff + int64(n)*8
	end := thetaOff + int64(k)*16
	if size < end {
		return nil, 0, fmt.Errorf("core: checkpoint arrays: %w: have %d bytes, N=%d K=%d needs %d",
			ErrCheckpointTruncated, size, n, k, end)
	}
	// A well-formed checkpoint ends exactly where the header says: trailing
	// bytes mean a damaged file (e.g. two checkpoints concatenated, or a
	// header whose N/K undercount the arrays that follow).
	if size > end {
		return nil, 0, fmt.Errorf("core: %w: trailing bytes past the N=%d K=%d arrays", ErrCheckpointFormat, n, k)
	}
	w, err := open(n, k)
	if err != nil {
		return nil, 0, err
	}

	batch := min(store.BatchRows, n)
	piR := io.NewSectionReader(r, piOff, sumOff-piOff)
	sumR := io.NewSectionReader(r, sumOff, thetaOff-sumOff)
	ids := make([]int32, 0, batch)
	pi := make([]float32, batch*k)
	sums := make([]float64, batch)
	piBuf := make([]byte, batch*k*4)
	sumBuf := make([]byte, batch*8)
	for base := 0; base < n; base += batch {
		hi := min(base+batch, n)
		rows := hi - base
		ids = ids[:0]
		for a := base; a < hi; a++ {
			ids = append(ids, int32(a))
		}
		if _, err := io.ReadFull(piR, piBuf[:rows*k*4]); err != nil {
			return nil, 0, truncated("π", err)
		}
		wire.Float32s(piBuf, 0, rows*k, pi)
		if _, err := io.ReadFull(sumR, sumBuf[:rows*8]); err != nil {
			return nil, 0, truncated("Σφ", err)
		}
		wire.Float64s(sumBuf, 0, rows, sums)
		if err := w.WritePiRows(ids, pi[:rows*k], sums[:rows]); err != nil {
			return nil, 0, fmt.Errorf("core: checkpoint restore at vertex %d: %w", base, err)
		}
	}

	theta = make([]float64, 2*k)
	thBuf := make([]byte, 2*k*8)
	if _, err := r.ReadAt(thBuf, thetaOff); err != nil {
		return nil, 0, truncated("θ", err)
	}
	wire.Float64s(thBuf, 0, 2*k, theta)
	return theta, iteration, nil
}

// loadState restores a checkpoint of size bytes into a fresh State through a
// LocalStore view of its arrays. β is re-derived from θ.
func loadState(r io.ReaderAt, size int64) (*State, int, error) {
	var s *State
	theta, iteration, err := restore(r, size, func(n, k int) (store.PiStore, error) {
		s = &State{N: n, K: k, Pi: make([]float32, n*k), PhiSum: make([]float64, n), Beta: make([]float64, k)}
		return store.NewLocal(s.Pi, s.PhiSum, k, 1), nil
	})
	if err != nil {
		return nil, 0, err
	}
	s.Theta = theta
	s.RefreshBeta()
	return s, iteration, nil
}

// Load reads a state written by SaveStore and returns it with the stored
// iteration counter. A stream has no size to check the header against, so
// Load buffers it first; LoadFile reads the file in place.
func Load(r io.Reader) (*State, int, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	return loadState(bytes.NewReader(buf), int64(len(buf)))
}

// SaveStoreFile writes a streamed checkpoint to path atomically and durably.
func SaveStoreFile(path string, st store.PiStore, theta []float64, iteration int) error {
	return store.WriteFileAtomic(path, func(w io.Writer) error { return SaveStore(w, st, theta, iteration) })
}

// openSized opens path for the checkpoint reader and reports its size.
func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*State, int, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return loadState(f, size)
}

// LoadStoreFile restores a checkpoint into a π backend through its
// WritePiRows — the mirror of SaveStoreFile, never holding the full table in
// memory, and the one way a run resumes (the distributed master's restart,
// at every rank count). The file's (N, K) must match dst's dimensions
// (ErrCheckpointShape otherwise); a file shorter than the header promises
// fails with ErrCheckpointTruncated before any row lands. Returns the θ
// vector and stored iteration for the caller to install.
func LoadStoreFile(path string, dst store.PiStore) (theta []float64, iteration int, err error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return restore(f, size, func(n, k int) (store.PiStore, error) {
		if n != dst.NumRows() || k != dst.K() {
			return nil, fmt.Errorf("core: %w: checkpoint has N=%d K=%d, store is %d×%d (loading %s)",
				ErrCheckpointShape, n, k, dst.NumRows(), dst.K(), path)
		}
		return dst, nil
	})
}
