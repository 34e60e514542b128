package tsdb

// TierStats reports one downsampling tier's occupancy, summed across
// all series.
type TierStats struct {
	// Buckets is the live summary-bucket count; Capacity the total ring
	// capacity (per-series cap × series count).
	Buckets  int `json:"buckets"`
	Capacity int `json:"capacity"`
	// Samples is the raw sample count the live buckets summarize.
	Samples int `json:"samples"`
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
		if se.t1 != nil {
			st.Tier1.Buckets += se.t1.n
			st.Tier1.Capacity += len(se.t1.start)
			st.Tier1.Samples += se.t1.samples()
		}
		if se.t2 != nil {
			st.Tier2.Buckets += se.t2.n
			st.Tier2.Capacity += len(se.t2.start)
			st.Tier2.Samples += se.t2.samples()
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
