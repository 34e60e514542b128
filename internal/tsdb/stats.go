package tsdb

// TierStats reports one downsampling tier's occupancy, summed across
// all series.
type TierStats struct {
	// Buckets is the live summary-bucket count; Capacity the buckets
	// the tier rings have storage for. A ring is allocated at its first
	// bucket and doubles up to Config.Tier1Cap / Tier2Cap, so Capacity
	// is at most twice Buckets until rings reach their cap, and never
	// more than cap × series.
	Buckets  int `json:"buckets"`
	Capacity int `json:"capacity"`
	// Samples is the raw sample count the live buckets summarize.
	Samples int `json:"samples"`
}

func (ts *TierStats) add(t *tier) {
	ts.Buckets += t.n
	ts.Capacity += len(t.b)
	ts.Samples += t.samples()
}

// Stats is the store-wide occupancy and compression-efficiency summary
// served by the obs server at /tsdb/stats.
type Stats struct {
	Series      int `json:"series"`
	HeadSamples int `json:"head_samples"`
	// Chunks/ChunkSamples/ChunkBytes describe the sealed compressed
	// chain; BytesPerSample = ChunkBytes / ChunkSamples is the live
	// compression ratio (a raw sample is 16 bytes: i64 ts + f64 value).
	Chunks         int       `json:"chunks"`
	ChunkSamples   int       `json:"chunk_samples"`
	ChunkBytes     int       `json:"chunk_bytes"`
	BytesPerSample float64   `json:"bytes_per_sample"`
	Tier1          TierStats `json:"tier1"`
	Tier2          TierStats `json:"tier2"`
	// Raw payload archive (AppendRaw side).
	RawPayloads     int `json:"raw_payloads"`
	RawPayloadBytes int `json:"raw_payload_bytes"`
}

// Stats walks every shard and series and returns the store-wide
// occupancy summary. It takes each series lock briefly; intended for
// the observability endpoint, not hot paths.
func (s *Store) Stats() Stats {
	var st Stats
	s.walk(func(SeriesKey) bool { return true }, func(_ SeriesKey, se *series) {
		se.mu.Lock()
		st.Series++
		st.HeadSamples += se.n
		st.Chunks += len(se.chunks)
		for _, ck := range se.chunks {
			st.ChunkSamples += ck.count
			st.ChunkBytes += ck.sizeBytes()
		}
		if l := se.tiers; l != nil {
			st.Tier1.add(&l.t1)
			st.Tier2.add(&l.t2)
		}
		se.mu.Unlock()
	})
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rs := range sh.raw {
			rs.mu.Lock()
			st.RawPayloads += rs.n
			c := len(rs.ts)
			for j := 0; j < rs.n; j++ {
				st.RawPayloadBytes += len(rs.bufs[(rs.head+j)%c])
			}
			rs.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	if st.ChunkSamples > 0 {
		st.BytesPerSample = float64(st.ChunkBytes) / float64(st.ChunkSamples)
	}
	return st
}
