// Package snapfile keeps a store's snapshot in a file: a store that
// writes and reads its snapshot as a stream gets atomic saves, loads
// that treat a missing file as a fresh start, and a periodic saver. The
// time-series store (tsdb) and the A1 policy store persist through it.
package snapfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Store serializes itself as a snapshot stream.
type Store interface {
	WriteSnapshot(w io.Writer) (int64, error)
	ReadSnapshot(r io.Reader) error
}

// Save writes an atomic snapshot of s: a temp file in path's directory,
// synced, then renamed over path.
func Save(s Store, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := s.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load restores s from a snapshot file written by Save. A missing file
// is not an error (fresh start); a malformed one is.
func Load(s Store, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return s.ReadSnapshot(f)
}

// Every runs a background loop saving s to path every interval (0:
// never) until stop is closed, then saves one final snapshot. It returns
// a done channel that closes after the final save. Errors are reported
// through onErr (nil ignores them).
func Every(s Store, path string, interval time.Duration, stop <-chan struct{}, onErr func(error)) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var tick <-chan time.Time
		if interval > 0 {
			t := time.NewTicker(interval)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-tick:
				if err := Save(s, path); err != nil && onErr != nil {
					onErr(err)
				}
			case <-stop:
				if err := Save(s, path); err != nil && onErr != nil {
					onErr(err)
				}
				return
			}
		}
	}()
	return done
}
