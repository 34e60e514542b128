// Package sm implements FlexRIC's service models (SMs): the extendable,
// composable information contracts between RAN functions and controllers
// (§3, §6). The SDK ships the monitoring SMs (MAC, RLC, PDCP statistics),
// the slicing control SM (SC SM, §6.1.2), the traffic control SM (TC SM,
// §6.1.1), an RRC UE-notification SM, an O-RAN-style KPM SM, and the
// "Hello World" ping SM used by the encoding experiments (§5.2).
//
// Every SM payload is encoded independently from E2AP (E2's mandated
// double encoding) and supports both the ASN.1-PER-style and the
// FlatBuffers-style scheme; the leading wire byte names the scheme, so
// payloads are self-describing and the four E2AP×E2SM combinations of
// Fig. 7 can be composed freely.
package sm

import (
	"errors"
	"fmt"

	"flexric/internal/encoding/walk"
)

// Well-known RAN function IDs for the shipped service models.
const (
	IDHelloWorld  uint16 = 140
	IDMACStats    uint16 = 142
	IDRLCStats    uint16 = 143
	IDPDCPStats   uint16 = 144
	IDSliceCtrl   uint16 = 145
	IDTrafficCtrl uint16 = 146
	IDKPM         uint16 = 147
	IDRRC         uint16 = 148
)

// Scheme selects an SM payload encoding.
type Scheme uint8

// SM encoding schemes. Wire values are stable: they lead every payload.
const (
	SchemeASN Scheme = 0
	SchemeFB  Scheme = 1
)

func (s Scheme) String() string {
	if s == SchemeFB {
		return "fb"
	}
	return "asn"
}

// Codec errors.
var (
	// ErrBadPayload reports a malformed SM payload.
	ErrBadPayload = errors.New("sm: malformed payload")
	// ErrBadScheme reports an unknown scheme byte.
	ErrBadScheme = errors.New("sm: unknown encoding scheme")
)

// schemeOf splits the scheme byte off a payload.
func schemeOf(b []byte) (Scheme, []byte, error) {
	if len(b) == 0 {
		return 0, nil, ErrBadPayload
	}
	s := Scheme(b[0])
	if s != SchemeASN && s != SchemeFB {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadScheme, b[0])
	}
	return s, b[1:], nil
}

// Trigger is the event trigger definition shared by the periodic
// monitoring SMs: report every PeriodMS milliseconds.
type Trigger struct {
	PeriodMS uint32
}

func (t *Trigger) walk(f walk.Fields) { f.U32(0, &t.PeriodMS) }

// EncodeTrigger serializes a periodic event trigger.
func EncodeTrigger(s Scheme, t Trigger) []byte { return appendWalk(nil, s, &t) }

// DecodeTrigger parses a periodic event trigger.
func DecodeTrigger(b []byte) (Trigger, error) {
	t, err := decodeNew[Trigger](b)
	if err != nil {
		return Trigger{}, err
	}
	return *t, nil
}
