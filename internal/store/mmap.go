package store

// MmapStore: the out-of-core π backend. The full table lives on disk as a
// directory of fixed-size shard files, each memory-mapped on demand, so a
// single machine can train graphs whose π matrix does not fit in RAM — the
// paper's com-Friendster target is ~3 TB of π, and the fixed RowBytes(K)
// layout maps 1:1 onto flat files.
//
// # Layout
//
//	<dir>/MANIFEST                  JSON: dims, shard size, per-shard generation
//	<dir>/shard-00007-g000003.pi    sealed shard 7, generation 3
//	<dir>/shard-00007.work          shard 7's unsealed working copy (if dirty)
//
// Every shard file is a 32-byte header (magic, K, shard index, row count,
// generation) followed by rows×RowBytes(K) of row payload — the same wire
// codec every other backend uses, so a shard byte-compared against a DKV
// value or a LocalStore encode is identical.
//
// # Seal protocol (crash safety)
//
// Sealed generation files are never written in place. The first write to a
// shard after a seal copies its current generation into a .work file and
// remaps that read-write; subsequent writes mutate the work mapping only.
// Seal() then makes the working state durable and current atomically:
//
//  1. per dirty shard: stamp the new generation into the header, fsync,
//     rename its file → shard-XXXXX-gGGGGGG.pi (create-rename, never in
//     place). The shard remembers which file backs its mapping, so a seal
//     that failed after some renames is retried from where each shard now
//     is (a rename onto itself is a no-op);
//  2. write MANIFEST.tmp with the new per-shard generations, fsync, rename
//     over MANIFEST, fsync the directory (WriteFileAtomic) — the commit
//     point;
//  3. best-effort removal of the superseded generation files.
//
// A crash anywhere before step 2's rename leaves MANIFEST pointing at the
// previous generation files, which steps 1 and 3 never touched — Open loads
// the previous generation and discards orphans. A crash after the rename is
// a completed seal. A half-written shard can therefore never become current.
//
// # Consistency
//
// Within a phase the training algorithm never reads a row it writes, and
// writes go straight into the (work) mapping, so a phase barrier needs no
// data movement. Reads are answered from the page cache via the mapping; the
// kernel pages cold shards in and out, which is the whole point.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/par"
)

const (
	shardMagic       = 0x6f63647069736831 // "ocdpish1"
	shardHeaderBytes = 32

	// DefaultShardRows is the shard granularity when MmapOptions leaves it
	// zero: 64Ki rows ≈ 34 MB per shard at K=128 — large enough that the
	// per-shard open/map overhead vanishes, small enough that copy-on-write
	// materialisation stays cheap.
	DefaultShardRows = 1 << 16

	manifestName    = "MANIFEST"
	manifestVersion = 1
)

// MmapOptions configures CreateMmap/OpenMmap.
type MmapOptions struct {
	// ShardRows is the shard size in rows; 0 = DefaultShardRows.
	ShardRows int
	// Threads parallelises batched row decode; 0 = GOMAXPROCS.
	Threads int
}

// mmapManifest is the JSON commit record of the seal protocol.
type mmapManifest struct {
	Version   int      `json:"version"`
	N         int      `json:"n"`
	K         int      `json:"k"`
	ShardRows int      `json:"shard_rows"`
	SealGen   uint64   `json:"seal_gen"`
	Shards    []uint64 `json:"shards"` // per-shard sealed generation
}

// mmapShard is one shard's live state.
type mmapShard struct {
	rows  int
	gen   uint64 // generation of the sealed file this shard last sealed to
	dirty bool   // mapping holds writes no manifest references yet
	data  []byte // mmap of header+rows·rb; nil before materialisation
	f     *os.File
	path  string // the file behind data: a .work file, or a generation file
}

// MmapStore implements PiStore over a directory of memory-mapped shard
// files. See the package comment at the top of this file for the layout and
// the seal protocol.
type MmapStore struct {
	dir       string
	n, k      int
	shardRows int
	threads   int
	rb        int

	mu     sync.RWMutex
	shards []mmapShard
	gen    uint64 // last sealed generation (0 = never sealed)

	// sealHook, when set (tests only), runs between seal-protocol steps:
	// ("shard", i) after shard i's rename, ("manifest", -1) after the
	// manifest commit. Returning an error aborts the seal at that point —
	// the crash-injection seam for the recovery tests.
	sealHook func(step string, shard int) error
}

// CreateMmap initialises a new store directory for an n×k table. The
// directory is created (it must not already hold a manifest); rows are
// unmaterialised until InitRows/WritePiRows/WriteRows touch them, and
// nothing is durable until the first Seal.
func CreateMmap(dir string, n, k int, opt MmapOptions) (*MmapStore, error) {
	if n < 1 || k < 1 {
		return nil, fmt.Errorf("store: mmap table %d×%d invalid", n, k)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already holds a sealed π table (open it instead)", dir)
	}
	s := newMmapStore(dir, n, k, opt)
	return s, nil
}

// OpenMmap loads the sealed generation recorded in dir's manifest. The
// manifest is a claim: its dimensions are bounded (MaxRows, MaxK) and its
// shard list checked against them before anything is sized from it, so a
// hostile one is a typed ErrMmapFormat, not an allocation. Orphan .work and
// .tmp files from an interrupted seal are removed; shard files are
// validated (header + exact size) so a torn file surfaces as a typed
// ErrShortRow instead of an out-of-range panic on first read.
func OpenMmap(dir string, opt MmapOptions) (*MmapStore, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: mmap manifest: %w", err)
	}
	var m mmapManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("store: %w: manifest: %v", ErrMmapFormat, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: %w: manifest version %d unsupported", ErrMmapFormat, m.Version)
	}
	if m.N < 1 || m.K < 1 || m.ShardRows < 1 || m.N > MaxRows || m.K > MaxK {
		return nil, fmt.Errorf("store: %w: manifest claims N=%d K=%d shardRows=%d", ErrMmapFormat, m.N, m.K, m.ShardRows)
	}
	if _, want := shardLayout(m.N, m.ShardRows); len(m.Shards) != want {
		return nil, fmt.Errorf("store: %w: manifest lists %d shards, dims need %d", ErrMmapFormat, len(m.Shards), want)
	}
	opt.ShardRows = m.ShardRows
	s := newMmapStore(dir, m.N, m.K, opt)
	s.gen = m.SealGen
	for i := range s.shards {
		if err := s.openSealed(i, m.Shards[i]); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.removeOrphans(m.Shards)
	return s, nil
}

// shardLayout returns the rows per shard (shardRows, at most n) and the
// shard count of an n-row table.
func shardLayout(n, shardRows int) (rows, count int) {
	rows = min(shardRows, n)
	return rows, (n + rows - 1) / rows
}

func newMmapStore(dir string, n, k int, opt MmapOptions) *MmapStore {
	shardRows := opt.ShardRows
	if shardRows <= 0 {
		shardRows = DefaultShardRows
	}
	shardRows, nShards := shardLayout(n, shardRows)
	s := &MmapStore{
		dir: dir, n: n, k: k, shardRows: shardRows,
		threads: opt.Threads, rb: RowBytes(k),
		shards: make([]mmapShard, nShards),
	}
	for i := range s.shards {
		rows := shardRows
		if i == nShards-1 {
			rows = n - i*shardRows
		}
		s.shards[i].rows = rows
	}
	return s
}

func (s *MmapStore) shardFile(i int, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%05d-g%06d.pi", i, gen))
}

func (s *MmapStore) workFile(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%05d.work", i))
}

func (s *MmapStore) shardSize(i int) int {
	return shardHeaderBytes + s.shards[i].rows*s.rb
}

// encodeShardHeader stamps the 32-byte shard header into dst.
func (s *MmapStore) encodeShardHeader(dst []byte, shard int, gen uint64) {
	binary.LittleEndian.PutUint64(dst[0:], shardMagic)
	binary.LittleEndian.PutUint32(dst[8:], uint32(s.k))
	binary.LittleEndian.PutUint32(dst[12:], uint32(shard))
	binary.LittleEndian.PutUint32(dst[16:], uint32(s.shards[shard].rows))
	binary.LittleEndian.PutUint32(dst[20:], 0)
	binary.LittleEndian.PutUint64(dst[24:], gen)
}

// openSealed maps shard i's sealed generation file read-only, validating
// header and size so torn bytes fail typed and early.
func (s *MmapStore) openSealed(i int, gen uint64) error {
	path := s.shardFile(i, gen)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: mmap shard %d: %w", i, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	want := int64(s.shardSize(i))
	if st.Size() != want {
		f.Close()
		return fmt.Errorf("store: mmap shard %d (%s): %w: file has %d bytes, need %d",
			i, filepath.Base(path), ErrShortRow, st.Size(), want)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(want), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: mmap shard %d: %w", i, err)
	}
	if err := s.checkShardHeader(data, i, gen); err != nil {
		syscall.Munmap(data)
		f.Close()
		return err
	}
	s.shards[i].data = data
	s.shards[i].f = f
	s.shards[i].path = path
	s.shards[i].gen = gen
	s.shards[i].dirty = false
	return nil
}

func (s *MmapStore) checkShardHeader(data []byte, i int, gen uint64) error {
	if binary.LittleEndian.Uint64(data[0:]) != shardMagic {
		return fmt.Errorf("store: %w: shard %d: bad magic", ErrMmapFormat, i)
	}
	if k := binary.LittleEndian.Uint32(data[8:]); int(k) != s.k {
		return fmt.Errorf("store: %w: shard %d: K=%d, store expects %d", ErrMmapFormat, i, k, s.k)
	}
	if idx := binary.LittleEndian.Uint32(data[12:]); int(idx) != i {
		return fmt.Errorf("store: %w: shard %d: header claims shard %d", ErrMmapFormat, i, idx)
	}
	if rows := binary.LittleEndian.Uint32(data[16:]); int(rows) != s.shards[i].rows {
		return fmt.Errorf("store: %w: shard %d: header claims %d rows, need %d", ErrMmapFormat, i, rows, s.shards[i].rows)
	}
	if g := binary.LittleEndian.Uint64(data[24:]); g != gen {
		return fmt.Errorf("store: %w: shard %d: header generation %d, manifest says %d", ErrMmapFormat, i, g, gen)
	}
	return nil
}

// removeOrphans deletes leftovers of an interrupted seal: .work files,
// MANIFEST.tmp, and shard generation files the manifest does not reference.
func (s *MmapStore) removeOrphans(gens []uint64) {
	os.Remove(filepath.Join(s.dir, manifestName+".tmp"))
	for i := range s.shards {
		os.Remove(s.workFile(i))
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	referenced := make(map[string]bool, len(gens))
	for i, g := range gens {
		referenced[filepath.Base(s.shardFile(i, g))] = true
	}
	for _, e := range entries {
		name := e.Name()
		var idx int
		var gen uint64
		if _, err := fmt.Sscanf(name, "shard-%05d-g%06d.pi", &idx, &gen); err == nil && !referenced[name] {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// materializeLocked gives shard i a writable .work mapping: a copy of its
// sealed generation (or zeroes when the shard has never been written). The
// copy streams file-to-file so it lands in the page cache, not the heap.
// Caller holds s.mu for writing.
func (s *MmapStore) materializeLocked(i int) error {
	sh := &s.shards[i]
	if sh.dirty {
		return nil
	}
	size := s.shardSize(i)
	path := s.workFile(i)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if sh.data != nil {
		// One write from the sealed mapping copies the whole file; the work
		// file's header is re-stamped below (generation is assigned at seal
		// time).
		if _, err := f.Write(sh.data); err != nil {
			f.Close()
			os.Remove(path)
			return err
		}
	} else if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("store: mmap work shard %d: %w", i, err)
	}
	s.encodeShardHeader(data, i, 0) // generation stamped at seal
	if sh.data != nil {
		syscall.Munmap(sh.data)
		sh.f.Close()
	}
	sh.data = data
	sh.f = f
	sh.path = path
	sh.dirty = true
	return nil
}

// rowAt returns row a's bytes in its shard mapping. Caller holds s.mu (any
// mode) and has ensured the shard is materialised or sealed.
func (s *MmapStore) rowAt(a int) ([]byte, error) {
	sh := &s.shards[a/s.shardRows]
	if sh.data == nil {
		return nil, fmt.Errorf("store: mmap shard %d not initialised (row %d)", a/s.shardRows, a)
	}
	off := shardHeaderBytes + (a%s.shardRows)*s.rb
	return sh.data[off : off+s.rb], nil
}

// NumRows implements PiStore.
func (s *MmapStore) NumRows() int { return s.n }

// K implements PiStore.
func (s *MmapStore) K() int { return s.k }

// Generation returns the last sealed generation (0 before the first Seal).
func (s *MmapStore) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// ReadRows implements PiStore: rows decode straight out of the shard
// mappings in parallel.
func (s *MmapStore) ReadRows(ids []int32, dst *Rows) error {
	if err := checkIDs(ids, s.n); err != nil {
		return err
	}
	dst.Reset(len(ids), s.k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var errs errCollector
	par.For(len(ids), s.threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			raw, err := s.rowAt(int(ids[i]))
			if err == nil {
				var sum float64
				sum, err = DecodeRow(raw, dst.PiRow(i))
				dst.PhiSum[i] = sum
			}
			if err != nil {
				errs.set(fmt.Errorf("store: key %d: %w", ids[i], err))
			}
		}
	})
	return errs.get()
}

// WriteRows implements PiStore through the one writer, writeRows: rows are
// normalised outside the lock and stored by WritePiRows.
func (s *MmapStore) WriteRows(ids []int32, phi []float64) error {
	return writeRows(s, s.threads, ids, phi)
}

// WritePiRows implements PiStore: already-normalised rows land verbatim.
func (s *MmapStore) WritePiRows(ids []int32, pi []float32, phiSum []float64) error {
	if len(pi) != len(ids)*s.k || len(phiSum) != len(ids) {
		return fmt.Errorf("store: pi/phiSum have %d/%d values, want %d/%d",
			len(pi), len(phiSum), len(ids)*s.k, len(ids))
	}
	if err := checkIDs(ids, s.n); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		if err := s.materializeLocked(int(id) / s.shardRows); err != nil {
			return err
		}
		raw, err := s.rowAt(int(id))
		if err != nil {
			return err
		}
		EncodeRowPi(raw, pi[i*s.k:(i+1)*s.k], phiSum[i])
	}
	return nil
}

// InitRows streams the full table through initRow (vertex a → π row + Σφ),
// writing each shard sequentially through buffered file I/O — the initial
// population path. Unlike per-row mmap writes, the sequential write keeps
// the pages in the kernel's cache rather than the process's resident set,
// so initialising a larger-than-RAM table stays under a memory cap. The
// shards are left dirty (working copies); call Seal to make them current.
func (s *MmapStore) InitRows(initRow func(a int, pi []float32) float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pi := make([]float32, s.k)
	row := make([]byte, s.rb)
	hdr := make([]byte, shardHeaderBytes)
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.data != nil {
			return fmt.Errorf("store: InitRows on materialised shard %d (init must come first)", i)
		}
		path := s.workFile(i)
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, 1<<20)
		s.encodeShardHeader(hdr, i, 0)
		if _, err := w.Write(hdr); err != nil {
			f.Close()
			return err
		}
		base := i * s.shardRows
		for r := 0; r < sh.rows; r++ {
			phiSum := initRow(base+r, pi)
			EncodeRowPi(row, pi, phiSum)
			if _, err := w.Write(row); err != nil {
				f.Close()
				return err
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		data, err := syscall.Mmap(int(f.Fd()), 0, s.shardSize(i), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
		if err != nil {
			f.Close()
			return fmt.Errorf("store: mmap init shard %d: %w", i, err)
		}
		sh.data = data
		sh.f = f
		sh.path = path
		sh.dirty = true
	}
	return nil
}

// Seal commits all pending writes as a new generation: per-shard fsync +
// create-rename, then the manifest commit (see the file comment for the full
// protocol). It returns the sealed generation. Sealing with no dirty shards
// and an existing manifest is a no-op.
func (s *MmapStore) Seal() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	anyDirty := false
	for i := range s.shards {
		if s.shards[i].data == nil {
			return 0, fmt.Errorf("store: seal: shard %d never initialised", i)
		}
		if s.shards[i].dirty {
			anyDirty = true
		}
	}
	if !anyDirty && s.gen > 0 {
		return s.gen, nil
	}
	newGen := s.gen + 1
	type sealed struct {
		i      int
		oldGen uint64
	}
	var done []sealed
	for i := range s.shards {
		sh := &s.shards[i]
		if !sh.dirty {
			continue
		}
		binary.LittleEndian.PutUint64(sh.data[24:], newGen)
		if err := sh.f.Sync(); err != nil {
			return 0, fmt.Errorf("store: seal shard %d: %w", i, err)
		}
		to := s.shardFile(i, newGen)
		if err := os.Rename(sh.path, to); err != nil {
			return 0, fmt.Errorf("store: seal shard %d: %w", i, err)
		}
		sh.path = to
		done = append(done, sealed{i, sh.gen})
		if s.sealHook != nil {
			if err := s.sealHook("shard", i); err != nil {
				return 0, err
			}
		}
	}
	// Commit point: the manifest rename makes the new generation current.
	m := mmapManifest{
		Version: manifestVersion, N: s.n, K: s.k,
		ShardRows: s.shardRows, SealGen: newGen,
		Shards: make([]uint64, len(s.shards)),
	}
	for i := range s.shards {
		if s.shards[i].dirty {
			m.Shards[i] = newGen
		} else {
			m.Shards[i] = s.shards[i].gen
		}
	}
	if err := s.writeManifest(m); err != nil {
		return 0, err
	}
	if s.sealHook != nil {
		if err := s.sealHook("manifest", -1); err != nil {
			return 0, err
		}
	}
	// The commit succeeded: adopt the new generation in memory and drop the
	// superseded files (best-effort; Open ignores unreferenced generations).
	for _, d := range done {
		sh := &s.shards[d.i]
		sh.gen = newGen
		sh.dirty = false
		if d.oldGen > 0 {
			os.Remove(s.shardFile(d.i, d.oldGen))
		}
	}
	s.gen = newGen
	return newGen, nil
}

func (s *MmapStore) writeManifest(m mmapManifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(filepath.Join(s.dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}

// Close unmaps and closes every shard. The store is unusable afterwards;
// pending (unsealed) writes remain in the .work files but a subsequent Open
// discards them — call Seal first to keep them.
func (s *MmapStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.data != nil {
			if err := syscall.Munmap(sh.data); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.data = nil
		}
		if sh.f != nil {
			if err := sh.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.f = nil
		}
	}
	return firstErr
}

// interface conformance
var (
	_ PiStore   = (*MmapStore)(nil)
	_ io.Closer = (*MmapStore)(nil)
)
