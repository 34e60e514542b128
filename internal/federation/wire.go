package federation

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"flexric/internal/transport"
)

// IDFedCoord is the RAN-function ID of the federation coordination
// function every shard's northbound agent registers toward the root.
// It rides the ordinary E2 machinery: the root subscribes to it for
// periodic shard reports and uses its control endpoint for federated
// query legs and for takeover orders during failover. The ID lives
// above the sm package's range (140..148) so it can never shadow a
// real service model.
const IDFedCoord uint16 = 150

// FedOID is the coordination function's OID.
const FedOID = "fed-coord"

// legHeader is the control header of a query leg. Its payload is the
// URL-encoded tsdb query (agent, fn, ue, field, then from/to[/step_ms]
// or last), and the shard answers in the control outcome with a PER
// body (tsdb.AppendLeg): the tsdb.PartialLeg of a range query, or the
// []tsdb.Sample of a last=K one. A control without this header is a
// Takeover.
const legHeader = "leg"

// maxLegBytes bounds one leg answer. A windowed leg holds at most 4096
// buckets (tsdb's window cap), each under 150 bytes plus a few bytes
// per histogram bucket: a few MB even if every bucket spans values from
// 1 to 1e9. The bound leaves room for the control outcome's E2 message
// around the answer in one transport frame.
const maxLegBytes = transport.MaxMessageSize - 64<<10

// WrapTrigger prefixes an event trigger with the 8-byte big-endian
// agent key (the target's global E2 node ID). The root wraps every
// cross-shard subscription trigger this way; the shard unwraps it to
// find which of its agents the leg targets and forwards the inner
// trigger unchanged.
func WrapTrigger(key uint64, inner []byte) []byte {
	out := make([]byte, 8+len(inner))
	binary.BigEndian.PutUint64(out, key)
	copy(out[8:], inner)
	return out
}

// UnwrapTrigger splits a wrapped trigger back into the agent key and
// the inner trigger.
func UnwrapTrigger(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("federation: trigger too short for agent key (%d bytes)", len(b))
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// Report is the shard's periodic coordination indication: who it is,
// where its planes listen, and which agents (by global E2 node ID) it
// currently serves. The root's registry is built entirely from these.
type Report struct {
	Name   string   `json:"name"`
	E2     string   `json:"e2"`
	Obs    string   `json:"obs"` // obs base URL; empty when the shard runs none
	Agents []uint64 `json:"agents"`
	TS     int64    `json:"ts"`
}

// CoordTrigger parameterizes the coordination subscription.
type CoordTrigger struct {
	PeriodMS uint32 `json:"period_ms"`
}

// Takeover is the failover order the root sends a surviving shard over
// the coordination function's control endpoint: adopt the listed agents
// of the dead shard From, restoring their series from From's snapshot.
type Takeover struct {
	From   string   `json:"from"`
	Agents []uint64 `json:"agents"`
}

// EncodeReport / DecodeReport, and friends: reports, triggers and
// takeovers are low-rate (one report per shard per period), so they
// stay plain JSON. Query legs, one per shard per query, travel as PER
// walks (legHeader).

func EncodeReport(r *Report) []byte { b, _ := json.Marshal(r); return b }

func DecodeReport(b []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("federation: bad report: %w", err)
	}
	return &r, nil
}

func EncodeCoordTrigger(t CoordTrigger) []byte { b, _ := json.Marshal(t); return b }

func DecodeCoordTrigger(b []byte) (CoordTrigger, error) {
	var t CoordTrigger
	if err := json.Unmarshal(b, &t); err != nil {
		return t, fmt.Errorf("federation: bad coord trigger: %w", err)
	}
	return t, nil
}

func EncodeTakeover(t *Takeover) []byte { b, _ := json.Marshal(t); return b }

func DecodeTakeover(b []byte) (*Takeover, error) {
	var t Takeover
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("federation: bad takeover: %w", err)
	}
	return &t, nil
}

// SnapshotFile names the tsdb snapshot a shard maintains under the
// federation snapshot directory — the file its ring successor restores
// on takeover.
func SnapshotFile(dir, name string) string {
	return dir + "/shard-" + name + ".tsdb"
}
