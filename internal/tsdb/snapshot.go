package tsdb

// snapshot.go — WAL-less persistence: a versioned point-in-time image
// of every scalar series (write head, sealed chunks, downsampling
// tiers) that a restarted controller loads to keep its history. The
// raw payload archive is deliberately not snapshotted: it holds
// transient wire bytes whose consumers re-request on reconnect.
//
// Format v1 (little-endian throughout; normative spec with a worked
// example in docs/TSDB.md):
//
//	magic   "FXTS" (4 bytes)
//	version u8 = 1
//	payload — CRC-protected:
//	  u32 series count
//	  per series, in key order (agent, fn, ue, field):
//	    key        u32 agent, u16 fn, u16 ue, u8 field
//	    head       u32 n, then n × (i64 ts, u64 value bits)
//	    chunks     u32 n, each: u32 count, i64 firstTS, i64 lastTS,
//	               u64 min, max, sum, first, last (float bits),
//	               u32 nbits, ceil(nbits/8) payload bytes
//	    tiers      u8 n (0 when sealed without tiers, else 2,
//	               oldest/widest first), each: i64 width, u32 n,
//	               then n × (i64 start, u32 count,
//	               u64 min, max, sum bits)
//	footer  u32 CRC-32 (IEEE) of the payload bytes
//
// Writes are atomic at the file level (snapfile.Save writes a temp file
// and renames); each series is internally consistent (serialized under its
// lock) but the snapshot is not a cross-series atomic cut — series
// serialized later may contain samples appended after the write began,
// which is harmless for windowed-aggregate consumers.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

const (
	snapshotMagic   = "FXTS"
	snapshotVersion = 1

	// Pre-CRC sanity bounds: the CRC is only checkable after the whole
	// payload is read, so structural counts are capped to keep a
	// corrupt header from driving huge allocations.
	maxSnapSeries     = 1 << 22
	maxSnapSamples    = 1 << 24
	maxSnapChunks     = 1 << 16
	maxSnapChunkBytes = 1 << 26
	maxSnapTierCap    = 1 << 22
)

// ErrSnapshotFormat reports a malformed, truncated, or corrupt
// snapshot stream.
var ErrSnapshotFormat = errors.New("tsdb: bad snapshot")

type snapWriter struct {
	w   io.Writer
	crc uint32
	n   int64
	err error
	buf [8]byte
}

func (sw *snapWriter) write(p []byte) {
	if sw.err != nil {
		return
	}
	if _, err := sw.w.Write(p); err != nil {
		sw.err = err
		return
	}
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	sw.n += int64(len(p))
}

func (sw *snapWriter) u8(v uint8) { sw.buf[0] = v; sw.write(sw.buf[:1]) }
func (sw *snapWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(sw.buf[:2], v)
	sw.write(sw.buf[:2])
}
func (sw *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(sw.buf[:4], v)
	sw.write(sw.buf[:4])
}
func (sw *snapWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(sw.buf[:8], v)
	sw.write(sw.buf[:8])
}
func (sw *snapWriter) i64(v int64)   { sw.u64(uint64(v)) }
func (sw *snapWriter) f64(v float64) { sw.u64(math.Float64bits(v)) }

// WriteSnapshot serializes every scalar series to w in snapshot format
// v1 and returns the byte count written.
func (s *Store) WriteSnapshot(w io.Writer) (int64, error) {
	// Collect series pointers first so no shard lock is held during
	// serialization; pointers stay valid even if a shard map mutates.
	// Series are written in key order, so one store's snapshot repeats
	// byte for byte.
	type keyed struct {
		k  SeriesKey
		se *series
	}
	var all []keyed
	s.walk(func(SeriesKey) bool { return true }, func(k SeriesKey, se *series) {
		all = append(all, keyed{k, se})
	})
	slices.SortFunc(all, func(a, b keyed) int { return compareKeys(a.k, b.k) })

	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return 0, err
	}
	if _, err := w.Write([]byte{snapshotVersion}); err != nil {
		return 0, err
	}
	sw := &snapWriter{w: w}
	sw.u32(uint32(len(all)))
	for _, ks := range all {
		k, se := ks.k, ks.se
		se.mu.Lock()
		sw.u32(k.Agent)
		sw.u16(k.Fn)
		sw.u16(k.UE)
		sw.u8(uint8(k.Field))
		// Write head, oldest first.
		sw.u32(uint32(se.n))
		c := len(se.ts)
		for j := 0; j < se.n; j++ {
			p := (se.head + j) % c
			sw.i64(se.ts[p])
			sw.f64(se.vs[p])
		}
		// Sealed chunks, oldest first, payload verbatim.
		sw.u32(uint32(len(se.chunks)))
		for _, ck := range se.chunks {
			sw.u32(uint32(ck.count))
			sw.i64(ck.firstTS)
			sw.i64(ck.lastTS)
			sw.f64(ck.min)
			sw.f64(ck.max)
			sw.f64(ck.sum)
			sw.f64(ck.first)
			sw.f64(ck.last)
			sw.u32(uint32(ck.nbits))
			sw.write(ck.bits)
		}
		// Tiers, widest (oldest data) first. A compressed series that
		// has not folded yet writes both tiers empty; a tier of width 0
		// (a ring store's missing tier 2 after a one-tier snapshot) is
		// not written.
		l := se.tiers
		if l == nil && s.cfg.Compress {
			l = &noTiers
		}
		var tiers []*tier
		if l != nil {
			for _, t := range [...]*tier{&l.t2, &l.t1} {
				if t.width > 0 {
					tiers = append(tiers, t)
				}
			}
		}
		sw.u8(uint8(len(tiers)))
		for _, t := range tiers {
			sw.i64(t.width)
			sw.u32(uint32(t.n))
			for j := 0; j < t.n; j++ {
				b := t.at(j)
				sw.i64(b.start)
				sw.u32(b.count)
				sw.f64(b.min)
				sw.f64(b.max)
				sw.f64(b.sum)
			}
		}
		se.mu.Unlock()
		if sw.err != nil {
			return 0, sw.err
		}
	}
	// Footer: CRC of the payload, not itself CRC-protected.
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], sw.crc)
	if _, err := w.Write(foot[:]); err != nil {
		return 0, err
	}
	total := int64(len(snapshotMagic)) + 1 + sw.n + 4
	tel.snapWrites.Inc()
	tel.snapBytes.Add(uint64(total))
	return total, nil
}

type snapReader struct {
	r   io.Reader
	crc uint32
	err error
	buf [8]byte
}

func (sr *snapReader) read(p []byte) {
	if sr.err != nil {
		return
	}
	if _, err := io.ReadFull(sr.r, p); err != nil {
		sr.err = fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
		return
	}
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, p)
}

// snapSlab is the most a chunk payload allocates ahead of the bytes the
// stream has delivered.
const snapSlab = 4 << 10

// bytes reads an n-byte payload. Past snapSlab the buffer at most
// doubles per read, so a corrupt length allocates in proportion to the
// bytes actually present, not to the length it claims.
func (sr *snapReader) bytes(n int) []byte {
	b := make([]byte, min(n, snapSlab))
	sr.read(b)
	for len(b) < n && sr.err == nil {
		k := min(n-len(b), len(b))
		b = append(b, make([]byte, k)...)
		sr.read(b[len(b)-k:])
	}
	return b
}

func (sr *snapReader) u8() uint8 { sr.read(sr.buf[:1]); return sr.buf[0] }
func (sr *snapReader) u16() uint16 {
	sr.read(sr.buf[:2])
	return binary.LittleEndian.Uint16(sr.buf[:2])
}
func (sr *snapReader) u32() uint32 {
	sr.read(sr.buf[:4])
	return binary.LittleEndian.Uint32(sr.buf[:4])
}
func (sr *snapReader) u64() uint64 {
	sr.read(sr.buf[:8])
	return binary.LittleEndian.Uint64(sr.buf[:8])
}
func (sr *snapReader) i64() int64   { return int64(sr.u64()) }
func (sr *snapReader) f64() float64 { return math.Float64frombits(sr.u64()) }

// ReadSnapshot restores a snapshot stream into the store. Restored
// series replace same-keyed live series wholesale. Head samples beyond
// the store's configured Capacity keep the newest; snapshot tiers are
// restored even when the store itself runs uncompressed (they stay
// queryable but receive no further folds). The CRC footer is verified
// before any series becomes visible.
func (s *Store) ReadSnapshot(r io.Reader) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if string(magic[:]) != snapshotMagic {
		return fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, magic[:])
	}
	var ver [1]byte
	if _, err := io.ReadFull(r, ver[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if ver[0] != snapshotVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrSnapshotFormat, ver[0])
	}
	sr := &snapReader{r: r}
	nSeries := sr.u32()
	if sr.err != nil {
		return sr.err
	}
	if nSeries > maxSnapSeries {
		return fmt.Errorf("%w: series count %d", ErrSnapshotFormat, nSeries)
	}
	// Grown as series arrive: a corrupt count must not size them.
	var keys []SeriesKey
	var sers []*series
	for i := uint32(0); i < nSeries; i++ {
		k := SeriesKey{
			Agent: sr.u32(),
			Fn:    sr.u16(),
			UE:    sr.u16(),
			Field: Field(sr.u8()),
		}
		if k.Field >= numFields {
			return fmt.Errorf("%w: field %d", ErrSnapshotFormat, k.Field)
		}
		se := s.newSeries()
		// Head.
		hn := sr.u32()
		if sr.err != nil {
			return sr.err
		}
		if hn > maxSnapSamples {
			return fmt.Errorf("%w: head count %d", ErrSnapshotFormat, hn)
		}
		for j := uint32(0); j < hn; j++ {
			ts, v := sr.i64(), sr.f64()
			if sr.err != nil {
				return sr.err
			}
			// Keep the newest Capacity samples: overwrite-oldest on
			// overflow regardless of the compression mode (the restore
			// path must not seal — chunk state comes next).
			if c := len(se.ts); se.n == c {
				se.head = (se.head + 1) % c
				se.n--
			}
			se.pushLocked(ts, v)
		}
		// Chunks.
		cn := sr.u32()
		if sr.err != nil {
			return sr.err
		}
		if cn > maxSnapChunks {
			return fmt.Errorf("%w: chunk count %d", ErrSnapshotFormat, cn)
		}
		for j := uint32(0); j < cn; j++ {
			ck := &chunk{
				count:   int(sr.u32()),
				firstTS: sr.i64(),
				lastTS:  sr.i64(),
				min:     sr.f64(),
				max:     sr.f64(),
				sum:     sr.f64(),
				first:   sr.f64(),
				last:    sr.f64(),
			}
			nbits := sr.u32()
			if sr.err != nil {
				return sr.err
			}
			nbytes := (int(nbits) + 7) / 8
			if ck.count < 0 || int(nbits) < 0 || nbytes > maxSnapChunkBytes {
				return fmt.Errorf("%w: chunk size", ErrSnapshotFormat)
			}
			ck.nbits = int(nbits)
			ck.bits = sr.bytes(nbytes)
			se.chunks = append(se.chunks, ck)
		}
		// Tiers.
		tn := sr.u8()
		if sr.err != nil {
			return sr.err
		}
		if tn > 2 {
			return fmt.Errorf("%w: tier count %d", ErrSnapshotFormat, tn)
		}
		for j := uint8(0); j < tn; j++ {
			width := sr.i64()
			bn := sr.u32()
			if sr.err != nil {
				return sr.err
			}
			if width <= 0 || bn > maxSnapTierCap {
				return fmt.Errorf("%w: tier shape", ErrSnapshotFormat)
			}
			// A compressed store folds the buckets of its own two widths
			// into the series' ladder, made at the first bucket, and skips
			// the rest. Any other store keeps the tiers as they came (they
			// receive no further folds): the first of two is tier 2, a lone
			// one tier 1, each limited to its bucket count. Either way the
			// rings grow with the buckets read, not with a header's count.
			into := 0 // the tier the buckets fold into; 0 skips them
			switch {
			case !s.cfg.Compress:
				if se.tiers == nil {
					se.tiers = &ladder{}
				}
				t := &se.tiers.t1
				into = 1
				if tn == 2 && j == 0 {
					t, into = &se.tiers.t2, 2
				}
				t.width, t.limit = width, max(int(bn), 1)
			case width == tier1Width:
				into = 1
			case width == tier2Width:
				into = 2
			}
			for n := uint32(0); n < bn; n++ {
				b := bucket{start: sr.i64(), count: sr.u32(), min: sr.f64(), max: sr.f64(), sum: sr.f64()}
				if sr.err != nil {
					return sr.err
				}
				switch into {
				case 1:
					s.ladderLocked(se).fold1(b)
				case 2:
					s.ladderLocked(se).fold2(b)
				}
			}
		}
		keys = append(keys, k)
		sers = append(sers, se)
	}
	if sr.err != nil {
		return sr.err
	}
	var foot [4]byte
	if _, err := io.ReadFull(r, foot[:]); err != nil {
		return fmt.Errorf("%w: missing footer: %v", ErrSnapshotFormat, err)
	}
	if got := binary.LittleEndian.Uint32(foot[:]); got != sr.crc {
		return fmt.Errorf("%w: crc mismatch", ErrSnapshotFormat)
	}
	// CRC verified — publish.
	var added int64
	for i, k := range keys {
		rk := k.row()
		sh := s.shardFor(rk)
		sh.mu.Lock()
		if sh.put(rk, k.Field, sers[i]) != nil {
			sh.rows[rk][k.Field] = sers[i] // replace the live series
		} else {
			added++
		}
		sh.mu.Unlock()
	}
	tel.series.Add(added)
	tel.snapLoads.Inc()
	return nil
}
