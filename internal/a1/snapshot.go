package a1

// snapshot.go — policy-plane persistence: a point-in-time image of the
// store (every policy State plus the global version counter) that a
// restarted controller loads so intents, their versions, and their last
// enforcement verdicts survive the restart. Mirrors the tsdb snapshot
// idiom: magic + version byte, CRC-protected payload; package snapfile
// keeps it in a file (atomic temp-file-and-rename saves, periodic
// background loop with a final write on stop).
//
// Format v1 (little-endian):
//
//	magic   "FXA1" (4 bytes)
//	version u8 = 1
//	payload — CRC-protected:
//	  u64 store version counter
//	  u32 policy count
//	  per policy: u32 length, then that many bytes of State JSON
//	footer  u32 CRC-32 (IEEE) of the payload bytes
//
// States are JSON rather than hand-packed binary: the store is
// low-cardinality (policies, not samples), and JSON keeps the snapshot
// forward-compatible with new Policy fields for free.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	a1SnapshotMagic   = "FXA1"
	a1SnapshotVersion = 1

	// Pre-CRC sanity bounds, checked before allocating.
	maxSnapPolicies   = 1 << 20
	maxSnapStateBytes = 1 << 24
)

// ErrSnapshotFormat reports a malformed, truncated, or corrupt policy
// snapshot stream.
var ErrSnapshotFormat = errors.New("a1: bad snapshot")

// WriteSnapshot serializes the store to w in snapshot format v1 and
// returns the byte count written.
func (s *Store) WriteSnapshot(w io.Writer) (int64, error) {
	s.mu.RLock()
	version := s.version
	states := make([]State, 0, len(s.pols))
	for _, st := range s.pols {
		states = append(states, *st)
	}
	s.mu.RUnlock()

	if _, err := io.WriteString(w, a1SnapshotMagic); err != nil {
		return 0, err
	}
	if _, err := w.Write([]byte{a1SnapshotVersion}); err != nil {
		return 0, err
	}
	var crc uint32
	n := int64(len(a1SnapshotMagic) + 1)
	emit := func(p []byte) error {
		if _, err := w.Write(p); err != nil {
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, p)
		n += int64(len(p))
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:8], version)
	if err := emit(buf[:8]); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(states)))
	if err := emit(buf[:4]); err != nil {
		return n, err
	}
	for _, st := range states {
		b, err := json.Marshal(st)
		if err != nil {
			return n, err
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(b)))
		if err := emit(buf[:4]); err != nil {
			return n, err
		}
		if err := emit(b); err != nil {
			return n, err
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], crc)
	if _, err := w.Write(buf[:4]); err != nil {
		return n, err
	}
	return n + 4, nil
}

// ReadSnapshot restores a snapshot written by WriteSnapshot, replacing
// the store's contents wholesale. The version counter becomes the
// maximum of the current and snapshotted counters, so post-restore
// mutations can never reuse a version number handed out before the
// restart. No events fire: restore happens at startup, before any
// stream consumer attaches.
func (s *Store) ReadSnapshot(r io.Reader) error {
	head := make([]byte, len(a1SnapshotMagic)+1)
	if _, err := io.ReadFull(r, head); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if string(head[:4]) != a1SnapshotMagic {
		return fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, head[:4])
	}
	if head[4] != a1SnapshotVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrSnapshotFormat, head[4])
	}
	var crc uint32
	take := func(n int) ([]byte, error) {
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		return b, nil
	}
	b, err := take(8)
	if err != nil {
		return err
	}
	version := binary.LittleEndian.Uint64(b)
	if b, err = take(4); err != nil {
		return err
	}
	count := binary.LittleEndian.Uint32(b)
	if count > maxSnapPolicies {
		return fmt.Errorf("%w: %d policies", ErrSnapshotFormat, count)
	}
	pols := make(map[string]*State, count)
	for i := uint32(0); i < count; i++ {
		if b, err = take(4); err != nil {
			return err
		}
		sz := binary.LittleEndian.Uint32(b)
		if sz > maxSnapStateBytes {
			return fmt.Errorf("%w: state of %d bytes", ErrSnapshotFormat, sz)
		}
		if b, err = take(int(sz)); err != nil {
			return err
		}
		var st State
		if err := json.Unmarshal(b, &st); err != nil {
			return fmt.Errorf("%w: state %d: %v", ErrSnapshotFormat, i, err)
		}
		if st.Policy.ID == "" {
			return fmt.Errorf("%w: state %d has no policy id", ErrSnapshotFormat, i)
		}
		cp := st
		pols[st.Policy.ID] = &cp
	}
	var foot [4]byte
	if _, err := io.ReadFull(r, foot[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if got := binary.LittleEndian.Uint32(foot[:]); got != crc {
		return fmt.Errorf("%w: CRC mismatch", ErrSnapshotFormat)
	}

	s.mu.Lock()
	s.pols = pols
	if version > s.version {
		s.version = version
	}
	n := len(s.pols)
	s.mu.Unlock()
	storeTel.active.Set(int64(n))
	return nil
}
