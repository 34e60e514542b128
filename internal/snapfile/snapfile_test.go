package snapfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// blob is a store whose snapshot is its bytes; fail makes the write
// fail after writing half of them.
type blob struct {
	data []byte
	fail bool
}

func (b *blob) WriteSnapshot(w io.Writer) (int64, error) {
	if b.fail {
		n, _ := w.Write(b.data[:len(b.data)/2])
		return int64(n), errors.New("write failed")
	}
	n, err := w.Write(b.data)
	return int64(n), err
}

func (b *blob) ReadSnapshot(r io.Reader) (err error) {
	b.data, err = io.ReadAll(r)
	return err
}

// A failed save leaves the previous snapshot in place and no temp file
// beside it; a missing file loads as a fresh start.
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.snap")
	if err := Load(&blob{}, path); err != nil {
		t.Fatalf("missing file: %v", err)
	}
	if err := Save(&blob{data: []byte("first")}, path); err != nil {
		t.Fatal(err)
	}
	if err := Save(&blob{data: []byte("second"), fail: true}, path); err == nil {
		t.Fatal("failed write saved")
	}
	got := &blob{}
	if err := Load(got, path); err != nil || !bytes.Equal(got.data, []byte("first")) {
		t.Fatalf("loaded %q, %v; want the first snapshot", got.data, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d files in the directory, want the snapshot alone", len(entries))
	}
}
