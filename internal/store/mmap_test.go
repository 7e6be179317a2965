package store

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// initMmap creates an n×k store in a fresh temp dir, populates it with the
// same deterministic rows twoRankStores uses, and seals generation 1.
func initMmap(t testing.TB, n, k int, opt MmapOptions) *MmapStore {
	t.Helper()
	s, err := CreateMmap(t.TempDir(), n, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.InitRows(func(a int, pi []float32) float64 {
		for j := range pi {
			pi[j] = float32(a*10 + j)
		}
		return float64(a)
	}); err != nil {
		t.Fatal(err)
	}
	if gen, err := s.Seal(); err != nil || gen != 1 {
		t.Fatalf("first seal: gen=%d err=%v", gen, err)
	}
	return s
}

func TestMmapStoreReadWrite(t *testing.T) {
	const n, k = 100, 4
	s := initMmap(t, n, k, MmapOptions{ShardRows: 16})
	if s.NumRows() != n || s.K() != k {
		t.Fatalf("dims %d×%d, want %d×%d", s.NumRows(), s.K(), n, k)
	}

	// Initial rows decode exactly, including across shard boundaries.
	ids := []int32{0, 15, 16, 17, 99, 31, 32}
	var rows Rows
	if err := s.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	for i, a := range ids {
		checkInitRow(t, &rows, i, a, k)
	}

	// Writes use the reference SetPhiRow arithmetic bit-for-bit.
	phi := []float64{
		1, 2, 3, 4,
		0.5, 0.25, 0.125, 0.0625,
		10, 20, 30, 40,
	}
	wids := []int32{3, 47, 99}
	if err := s.WriteRows(wids, phi); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadRows(wids, &rows); err != nil {
		t.Fatal(err)
	}
	for i := range wids {
		wantPi, wantSum := refWrite(phi[i*k : (i+1)*k])
		if math.Float64bits(rows.PhiSum[i]) != math.Float64bits(wantSum) {
			t.Fatalf("row %d: Σφ = %v, want %v", i, rows.PhiSum[i], wantSum)
		}
		for j, w := range wantPi {
			if math.Float32bits(rows.PiRow(i)[j]) != math.Float32bits(w) {
				t.Fatalf("row %d: π[%d] = %v, want %v", i, j, rows.PiRow(i)[j], w)
			}
		}
	}

	// Out-of-range and short inputs fail typed, not panic.
	if err := s.ReadRows([]int32{int32(n)}, &rows); err == nil {
		t.Fatal("out-of-range key accepted by ReadRows")
	}
	if err := s.WriteRows([]int32{-1}, make([]float64, k)); err == nil {
		t.Fatal("negative key accepted by WriteRows")
	}
	if err := s.WriteRows([]int32{0}, []float64{1}); err == nil {
		t.Fatal("short phi accepted by WriteRows")
	}
}

func TestMmapStoreSealReopen(t *testing.T) {
	const n, k = 70, 3
	s := initMmap(t, n, k, MmapOptions{ShardRows: 32})
	dir := s.dir

	// Mutate a few rows, seal generation 2, close, reopen: the writes must
	// survive and untouched rows keep their initial values.
	phi := []float64{2, 3, 5}
	if err := s.WriteRows([]int32{40}, phi); err != nil {
		t.Fatal(err)
	}
	if gen, err := s.Seal(); err != nil || gen != 2 {
		t.Fatalf("second seal: gen=%d err=%v", gen, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenMmap(dir, MmapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Generation() != 2 {
		t.Fatalf("reopened generation %d, want 2", r.Generation())
	}
	var rows Rows
	if err := r.ReadRows([]int32{40, 7}, &rows); err != nil {
		t.Fatal(err)
	}
	wantPi, wantSum := refWrite(phi)
	if rows.PhiSum[0] != wantSum || rows.PiRow(0)[0] != wantPi[0] {
		t.Fatalf("sealed write lost: Σφ=%v π0=%v", rows.PhiSum[0], rows.PiRow(0)[0])
	}
	checkInitRow(t, &rows, 1, 7, k)

	// Unsealed writes are discarded by reopen (the documented contract).
	if err := r.WriteRows([]int32{7}, []float64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := OpenMmap(dir, MmapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.ReadRows([]int32{7}, &rows); err != nil {
		t.Fatal(err)
	}
	checkInitRow(t, &rows, 0, 7, k)
}

// TestMmapStoreCrashMidSeal kills the seal protocol between the shard
// renames and the manifest commit — the torn-state window — and verifies a
// reopen serves the previous generation completely intact.
func TestMmapStoreCrashMidSeal(t *testing.T) {
	const n, k = 64, 3
	s := initMmap(t, n, k, MmapOptions{ShardRows: 16})
	dir := s.dir

	// Dirty two shards, then crash after the first shard rename.
	if err := s.WriteRows([]int32{1, 60}, []float64{2, 3, 5, 7, 11, 13}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("simulated crash")
	s.sealHook = func(step string, shard int) error {
		if step == "shard" {
			return boom
		}
		return nil
	}
	if _, err := s.Seal(); !errors.Is(err, boom) {
		t.Fatalf("seal survived injected crash: %v", err)
	}
	s.Close()

	r, err := OpenMmap(dir, MmapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Generation() != 1 {
		t.Fatalf("after crash-mid-seal: generation %d, want 1", r.Generation())
	}
	// Every row reads back at its generation-1 value — the aborted writes to
	// vertices 1 and 60 never became current.
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	var rows Rows
	if err := r.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	for i, a := range ids {
		checkInitRow(t, &rows, i, a, k)
	}
	// The orphaned generation-2 shard from the aborted seal is gone, and a
	// fresh write+seal cycle works from the recovered state.
	names, err := filepath.Glob(filepath.Join(dir, "shard-*-g000002.pi"))
	if err != nil || len(names) != 0 {
		t.Fatalf("orphan generation files survive reopen: %v (err %v)", names, err)
	}
	if err := r.WriteRows([]int32{1}, []float64{1, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if gen, err := r.Seal(); err != nil || gen != 2 {
		t.Fatalf("post-recovery seal: gen=%d err=%v", gen, err)
	}
}

// TestMmapStoreCrashAfterManifest kills the seal after the manifest commit:
// the new generation is durable and must be what a reopen serves.
// TestMmapStoreSealRetry: a seal that fails after some shards were renamed
// (a transient fsync or rename error) must be retryable in the same process.
// The retry commits the pending writes at the next generation, a reopen
// reads them, and no orphan file is left behind.
func TestMmapStoreSealRetry(t *testing.T) {
	const n, k = 64, 3
	s := initMmap(t, n, k, MmapOptions{ShardRows: 16})
	dir := s.dir
	phi := []float64{2, 3, 5, 7, 11, 13}
	if err := s.WriteRows([]int32{1, 60}, phi); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transient I/O error")
	s.sealHook = func(step string, shard int) error {
		if step == "shard" && shard == 0 {
			return boom
		}
		return nil
	}
	if _, err := s.Seal(); !errors.Is(err, boom) {
		t.Fatalf("seal survived injected failure: %v", err)
	}
	s.sealHook = nil
	if gen, err := s.Seal(); err != nil || gen != 2 {
		t.Fatalf("retried seal: gen=%d err=%v", gen, err)
	}
	s.Close()

	r, err := OpenMmap(dir, MmapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Generation() != 2 {
		t.Fatalf("after retried seal: generation %d, want 2", r.Generation())
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	var rows Rows
	if err := r.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	for i, a := range ids {
		w := -1
		switch a {
		case 1:
			w = 0
		case 60:
			w = 1
		}
		if w < 0 {
			checkInitRow(t, &rows, i, a, k)
			continue
		}
		wantPi, wantSum := refWrite(phi[w*k : (w+1)*k])
		if rows.PhiSum[i] != wantSum || rows.PiRow(i)[2] != wantPi[2] {
			t.Fatalf("row %d after retried seal: Σφ=%v π=%v, want %v/%v", a, rows.PhiSum[i], rows.PiRow(i), wantSum, wantPi)
		}
	}
	// Shards 0 and 3 sealed at generation 2, shards 1 and 2 stay at 1; no
	// .work, .tmp or superseded generation file is left.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{"MANIFEST", "shard-00000-g000002.pi", "shard-00001-g000001.pi",
		"shard-00002-g000001.pi", "shard-00003-g000002.pi"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("store directory after retried seal:\n got %v\nwant %v", got, want)
	}
}

func TestMmapStoreCrashAfterManifest(t *testing.T) {
	const n, k = 48, 2
	s := initMmap(t, n, k, MmapOptions{ShardRows: 16})
	dir := s.dir
	phi := []float64{3, 5}
	if err := s.WriteRows([]int32{20}, phi); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("simulated crash")
	s.sealHook = func(step string, shard int) error {
		if step == "manifest" {
			return boom
		}
		return nil
	}
	if _, err := s.Seal(); !errors.Is(err, boom) {
		t.Fatalf("seal survived injected crash: %v", err)
	}
	s.Close()

	r, err := OpenMmap(dir, MmapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Generation() != 2 {
		t.Fatalf("after crash-post-commit: generation %d, want 2", r.Generation())
	}
	var rows Rows
	if err := r.ReadRows([]int32{20}, &rows); err != nil {
		t.Fatal(err)
	}
	wantPi, wantSum := refWrite(phi)
	if rows.PhiSum[0] != wantSum || rows.PiRow(0)[0] != wantPi[0] {
		t.Fatalf("committed write lost: Σφ=%v π0=%v", rows.PhiSum[0], rows.PiRow(0)[0])
	}
}

// TestMmapStoreTornShard truncates a sealed shard file and verifies Open
// refuses it with the typed short-row error instead of faulting on read.
func TestMmapStoreTornShard(t *testing.T) {
	const n, k = 40, 3
	s := initMmap(t, n, k, MmapOptions{ShardRows: 16})
	dir := s.dir
	s.Close()

	path := filepath.Join(dir, fmt.Sprintf("shard-%05d-g%06d.pi", 1, 1))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMmap(dir, MmapOptions{}); !errors.Is(err, ErrShortRow) {
		t.Fatalf("torn shard opened: err=%v, want ErrShortRow", err)
	}
}

func TestMmapStoreWritePiRowsAndSnapshot(t *testing.T) {
	const n, k = 40, 3
	s := initMmap(t, n, k, MmapOptions{ShardRows: 16})
	pi := []float32{0.25, 0.5, 0.25}
	if err := s.WritePiRows([]int32{11}, pi, []float64{42.5}); err != nil {
		t.Fatal(err)
	}
	var rows Rows
	if err := s.ReadRows([]int32{11}, &rows); err != nil {
		t.Fatal(err)
	}
	if rows.PhiSum[0] != 42.5 || rows.PiRow(0)[1] != 0.5 {
		t.Fatalf("verbatim row mangled: Σφ=%v π=%v", rows.PhiSum[0], rows.PiRow(0))
	}

	snap, err := TakeSnapshot(s, 7, []float64{0.9, 0.8, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 7 || snap.N != n || snap.K != k {
		t.Fatalf("snapshot dims: %+v", snap)
	}
	if snap.PiRow(11)[1] != 0.5 {
		t.Fatalf("snapshot row 11 = %v", snap.PiRow(11))
	}
	// Row 3 was initialised with π=(30,31,32) verbatim; the snapshot must
	// return exactly those bytes.
	if snap.PiRow(3)[0] != 30 || snap.PiRow(3)[2] != 32 {
		t.Fatalf("snapshot row 3 = %v", snap.PiRow(3))
	}
}

// TestOpenMmapHostileManifest pins that a MANIFEST is a claim: one
// announcing 2^62 one-row shards is refused as ErrMmapFormat before any
// shard table is sized from it.
func TestOpenMmapHostileManifest(t *testing.T) {
	dir := t.TempDir()
	manifest := `{"version": 1, "n": 4611686018427387904, "k": 3, "shard_rows": 1, "seal_gen": 1, "shards": [1]}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMmap(dir, MmapOptions{}); !errors.Is(err, ErrMmapFormat) {
		t.Fatalf("hostile manifest: err=%v, want ErrMmapFormat", err)
	}
}

// FuzzOpenMmap holds OpenMmap to "typed error or a valid store" over
// arbitrary MANIFEST bytes beside one real sealed shard file (a 16×3 table
// in one shard, generation 1). A valid store must read back every row.
func FuzzOpenMmap(f *testing.F) {
	const n, k = 16, 3
	seed := initMmap(f, n, k, MmapOptions{ShardRows: n})
	manifest, err := os.ReadFile(filepath.Join(seed.dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	shardName := filepath.Base(seed.shardFile(0, 1))
	shard, err := os.ReadFile(filepath.Join(seed.dir, shardName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest)
	f.Add([]byte(`{"version": 1, "n": 4611686018427387904, "k": 3, "shard_rows": 1, "seal_gen": 1, "shards": [1]}`))
	f.Add([]byte(`{"version": 1, "n": 16, "k": 3, "shard_rows": 8, "seal_gen": 1, "shards": [1, 1]}`))
	f.Add([]byte(`{"version": 1, "n": 8, "k": 8, "shard_rows": 8, "seal_gen": 1, "shards": [1]}`))
	f.Add([]byte(`{"version": 1, "n": 16, "k": 3, "shard_rows": 16, "seal_gen": 2, "shards": [2]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shardName), shard, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenMmap(dir, MmapOptions{})
		if err != nil {
			if !errors.Is(err, ErrMmapFormat) && !errors.Is(err, ErrShortRow) && !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		defer s.Close()
		if s.NumRows() != n || s.K() != k {
			t.Fatalf("opened a %d×%d store over a %d×%d shard", s.NumRows(), s.K(), n, k)
		}
		if err := Sweep(s, nil, func(int, *Rows) error { return nil }); err != nil {
			t.Fatalf("opened store does not read back: %v", err)
		}
	})
}
