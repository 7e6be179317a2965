package store

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic is the one durable publish of a whole file — the
// checkpoint files and the mmap MANIFEST both go through it: write
// path+".tmp", fsync it, rename it over path, then fsync the directory. The
// file fsync before the rename keeps the rename from reaching the disk
// before the data; the directory fsync after it makes the rename itself —
// the commit point — survive a crash. A failed write removes the .tmp and
// leaves any previous file at path untouched.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making the entries renamed into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
