package federation

import "flexric/internal/telemetry"

// Query-leg instrumentation, direct primitive pointers as elsewhere in
// the repo. The shard counts the legs it answers, their body bytes and
// how long answering took; the root counts the legs it dropped, failed
// or rejected. Nothing here runs per sample. The registry is
// process-wide: shards in one process share these rows.
var tel = struct {
	legs        *telemetry.Counter
	legBytes    *telemetry.Counter
	legLat      *telemetry.Histogram
	legsDropped *telemetry.Counter
}{
	legs:        telemetry.NewCounter("federation.legs"),
	legBytes:    telemetry.NewCounter("federation.leg_bytes"),
	legLat:      telemetry.NewHistogram("federation.leg_latency"),
	legsDropped: telemetry.NewCounter("federation.legs_dropped"),
}
