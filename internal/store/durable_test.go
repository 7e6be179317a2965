package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicKeepsOldFileOnFailure: a write that fails part-way —
// after some bytes reached the temp file — leaves the previous file at path
// byte for byte and no .tmp beside it; a write that succeeds replaces it.
func TestWriteFileAtomicKeepsOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("old"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("new, half written")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("after a failed write the file holds %q (err %v), want the old bytes", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v after a failed write, want just [state]", names)
	}

	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("after a good write the file holds %q, want \"new\"", got)
	}
	// A directory that cannot take the temp file fails without touching path.
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
