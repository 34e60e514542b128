// Package a1 is the non-RT-RIC-style policy plane: typed, schema-
// validated A1 policy objects held in a versioned in-memory store with
// per-policy enforcement status. The obs server mounts the store's
// HTTP northbound (/a1/policies, /a1/policies/{id}, /a1/status) and
// streams store events on the control-room "a1" channel; the
// xapp.SLAXApp closed loop consumes the store and writes status
// transitions back (see docs/A1.md).
//
// The package stays dependency-light on purpose: it knows nothing of
// the E2 plane, the tsdb, or the slicing controller — it is the shared
// contract between the operator-facing northbound and whatever loop
// enforces the policies.
package a1

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Status is the enforcement state of one policy.
type Status string

// Policy status values, as reported on /a1/status and the a1 stream
// channel.
const (
	// StatusNotApplied: the policy exists but nothing enforces it yet —
	// no enforcement loop is running, the agent has no NVS slice
	// configuration, or the policy was just created/updated.
	StatusNotApplied Status = "NOT_APPLIED"
	// StatusEnforced: the last enforcement tick found every target met.
	StatusEnforced Status = "ENFORCED"
	// StatusViolated: a target was missed for enough consecutive ticks
	// to clear the hysteresis filter.
	StatusViolated Status = "VIOLATED"
)

// TypeSliceSLA is the policy type this SDK ships: per-slice SLA
// targets (minimum throughput, maximum latency) enforced by the SLA
// closed loop against NVS slice weights.
const TypeSliceSLA = "slice_sla_v1"

// SliceTarget is one slice's SLA targets inside a TypeSliceSLA policy.
// At least one of the two targets must be set.
type SliceTarget struct {
	SliceID uint32 `json:"sliceId"`
	// MinThroughputMbps is the slice's aggregate downlink throughput
	// floor (0 = no throughput target).
	MinThroughputMbps float64 `json:"minThroughputMbps,omitempty"`
	// MaxLatencyMS is the ceiling on the p95 RLC sojourn time of any UE
	// in the slice (0 = no latency target).
	MaxLatencyMS float64 `json:"maxLatencyMs,omitempty"`
}

// Policy is one typed A1 policy object.
type Policy struct {
	// ID names the policy ([A-Za-z0-9._-], at most 64 chars).
	ID string `json:"id"`
	// TypeID selects the policy schema; TypeSliceSLA is the only
	// registered type.
	TypeID string `json:"typeId"`
	// Agent is the E2 agent the policy applies to.
	Agent int `json:"agent"`
	// Priority orders policies within one agent (higher wins ties for
	// remedy resources; 0-100).
	Priority int `json:"priority,omitempty"`
	// WindowMS is the enforcement window: targets are evaluated over
	// the trailing WindowMS of tsdb samples (50-600000).
	WindowMS int64 `json:"windowMs"`
	// CooldownMS is the minimum gap between two remedies for this
	// policy (0 = the loop's default, twice the window).
	CooldownMS int64 `json:"cooldownMs,omitempty"`
	// Targets are the per-slice SLA targets (1-32, unique slice IDs).
	Targets []SliceTarget `json:"targets"`
	// Version is assigned by the store and bumped on every update;
	// client-supplied values are ignored.
	Version uint64 `json:"version,omitempty"`
}

// Schema limits, mirrored in the JSON schema served at /a1/types.
const (
	maxIDLen     = 64
	maxPriority  = 100
	minWindowMS  = 50
	maxWindowMS  = 600_000
	maxCooldown  = 3_600_000
	maxTargets   = 32
	maxTargetVal = 1e6
)

// ValidationError aggregates every schema violation found in one
// policy, each prefixed with its JSON field path.
type ValidationError struct {
	Issues []string
}

func (e *ValidationError) Error() string {
	return "invalid policy: " + strings.Join(e.Issues, "; ")
}

// Validate checks the policy against its type's schema. It returns nil
// or a *ValidationError listing every violation.
func (p *Policy) Validate() error {
	var issues []string
	bad := func(format string, args ...any) {
		issues = append(issues, fmt.Sprintf(format, args...))
	}
	if p.ID == "" {
		bad("id: required")
	} else if len(p.ID) > maxIDLen {
		bad("id: longer than %d chars", maxIDLen)
	} else if !validID(p.ID) {
		bad("id: must match [A-Za-z0-9._-]+")
	}
	if p.TypeID != TypeSliceSLA {
		bad("typeId: unknown type %q (want %q)", p.TypeID, TypeSliceSLA)
	}
	if p.Agent < 0 {
		bad("agent: must be >= 0")
	}
	if p.Priority < 0 || p.Priority > maxPriority {
		bad("priority: out of range [0,%d]", maxPriority)
	}
	if p.WindowMS < minWindowMS || p.WindowMS > maxWindowMS {
		bad("windowMs: out of range [%d,%d]", minWindowMS, maxWindowMS)
	}
	if p.CooldownMS < 0 || p.CooldownMS > maxCooldown {
		bad("cooldownMs: out of range [0,%d]", maxCooldown)
	}
	if len(p.Targets) == 0 {
		bad("targets: at least one required")
	} else if len(p.Targets) > maxTargets {
		bad("targets: more than %d", maxTargets)
	}
	seen := make(map[uint32]bool, len(p.Targets))
	for i, t := range p.Targets {
		path := fmt.Sprintf("targets[%d]", i)
		if seen[t.SliceID] {
			bad("%s.sliceId: duplicate slice %d", path, t.SliceID)
		}
		seen[t.SliceID] = true
		if !finiteNonNeg(t.MinThroughputMbps) || t.MinThroughputMbps > maxTargetVal {
			bad("%s.minThroughputMbps: out of range [0,%g]", path, maxTargetVal)
		}
		if !finiteNonNeg(t.MaxLatencyMS) || t.MaxLatencyMS > maxTargetVal {
			bad("%s.maxLatencyMs: out of range [0,%g]", path, maxTargetVal)
		}
		if t.MinThroughputMbps == 0 && t.MaxLatencyMS == 0 {
			bad("%s: at least one of minThroughputMbps/maxLatencyMs required", path)
		}
	}
	if issues != nil {
		return &ValidationError{Issues: issues}
	}
	return nil
}

func validID(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func finiteNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// TypeSchema describes one registered policy type for GET /a1/types.
type TypeSchema struct {
	TypeID      string          `json:"typeId"`
	Description string          `json:"description"`
	Schema      json.RawMessage `json:"schema"`
}

// Types returns the registered policy-type schemas. The schema is a
// JSON-Schema-shaped document describing the same constraints Validate
// enforces.
func Types() []TypeSchema {
	return []TypeSchema{{
		TypeID:      TypeSliceSLA,
		Description: "per-slice SLA targets (min throughput / max p95 latency) enforced against NVS slice weights",
		Schema:      json.RawMessage(sliceSLASchema),
	}}
}

// sliceSLASchema is the JSON schema for TypeSliceSLA, kept in lockstep
// with Policy.Validate.
const sliceSLASchema = `{
  "type": "object",
  "required": ["id", "typeId", "agent", "windowMs", "targets"],
  "additionalProperties": false,
  "properties": {
    "id":         {"type": "string", "pattern": "^[A-Za-z0-9._-]{1,64}$"},
    "typeId":     {"const": "slice_sla_v1"},
    "agent":      {"type": "integer", "minimum": 0},
    "priority":   {"type": "integer", "minimum": 0, "maximum": 100},
    "windowMs":   {"type": "integer", "minimum": 50, "maximum": 600000},
    "cooldownMs": {"type": "integer", "minimum": 0, "maximum": 3600000},
    "version":    {"type": "integer", "minimum": 0},
    "targets": {
      "type": "array", "minItems": 1, "maxItems": 32,
      "items": {
        "type": "object",
        "required": ["sliceId"],
        "additionalProperties": false,
        "properties": {
          "sliceId":           {"type": "integer", "minimum": 0},
          "minThroughputMbps": {"type": "number", "minimum": 0, "maximum": 1000000},
          "maxLatencyMs":      {"type": "number", "minimum": 0, "maximum": 1000000}
        },
        "anyOf": [
          {"properties": {"minThroughputMbps": {"exclusiveMinimum": 0}}, "required": ["minThroughputMbps"]},
          {"properties": {"maxLatencyMs": {"exclusiveMinimum": 0}}, "required": ["maxLatencyMs"]}
        ]
      }
    }
  }
}`
