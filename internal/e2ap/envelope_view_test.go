package e2ap

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"flexric/internal/trace"
)

// An indication envelope is a view into the frame it was made from,
// valid until the next Envelope call on the codec; everything else a
// codec hands out — Decode's result, Envelope.PDU() — belongs to the
// caller. These tests pin both halves of that contract for both codecs:
// the receive loops recycle frame buffers on the strength of it.

// randomViewIndication widens randomIndication to the corners the view
// path has to get right: empty header, present or absent call process
// ID, valid or zero trace context.
func randomViewIndication(rng *rand.Rand) *Indication {
	ind := randomIndication(rng)
	if rng.Intn(4) == 0 {
		ind.Header = nil
	}
	if rng.Intn(2) == 0 {
		ind.Trace = trace.Context{TraceID: rng.Uint64() | 1, SpanID: rng.Uint64() | 1}
	}
	return ind
}

func encodeCopy(t testing.TB, c Codec, pdu PDU) []byte {
	t.Helper()
	wire, err := c.Encode(pdu)
	if err != nil {
		t.Fatalf("%s encode %s: %v", c.Name(), pdu.MsgType(), err)
	}
	return append([]byte(nil), wire...)
}

// within reports whether b's storage lies inside buf's.
func within(b, buf []byte) bool {
	if len(b) == 0 || len(buf) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&buf[0]))
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(buf))
}

// A PDU taken from one envelope must survive the next Envelope call,
// including one over the same (recycled) frame buffer.
func TestEnvelopePDUSurvivesNextEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range codecs(t) {
		for i := 0; i < 100; i++ {
			first, second := randomViewIndication(rng), randomViewIndication(rng)
			w1, w2 := encodeCopy(t, c, first), encodeCopy(t, c, second)
			env, err := c.Envelope(w1)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			pdu, err := env.PDU()
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if _, err := c.Envelope(w2); err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			// The receive loop reads the next frame into the same buffer.
			for j := range w1 {
				w1[j] = 0xEE
			}
			if !reflect.DeepEqual(pdu, first) {
				t.Fatalf("%s iter %d: PDU changed under the next Envelope\n got %+v\nwant %+v", c.Name(), i, pdu, first)
			}
		}
	}
}

// Decode's result owns its bytes: scribbling over the wire buffer
// afterwards changes nothing, for every message type.
func TestDecodeOwnsItsBytes(t *testing.T) {
	for _, c := range codecs(t) {
		for _, pdu := range samplePDUs() {
			wire := encodeCopy(t, c, pdu)
			got, err := c.Decode(wire)
			if err != nil {
				t.Fatalf("%s decode %s: %v", c.Name(), pdu.MsgType(), err)
			}
			for j := range wire {
				wire[j] ^= 0xFF
			}
			if !reflect.DeepEqual(got, pdu) {
				t.Fatalf("%s %s: decoded message aliases the wire\n got %+v\nwant %+v", c.Name(), pdu.MsgType(), got, pdu)
			}
		}
	}
}

// The view and the decode pass must agree field for field, and the view
// must be one: a non-empty header or payload points into the frame.
func TestEnvelopeViewMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range codecs(t) {
		for i := 0; i < 500; i++ {
			ind := randomViewIndication(rng)
			wire := encodeCopy(t, c, ind)
			dec, err := c.Decode(wire)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			want := dec.(*Indication)
			env, err := c.Envelope(wire)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if env.Type() != TypeIndication || env.RequestID() != want.RequestID ||
				env.RANFunctionID() != want.RANFunctionID || env.Trace() != want.Trace {
				t.Fatalf("%s iter %d: routing fields differ from Decode: %+v", c.Name(), i, want)
			}
			hdr, payload := env.IndicationHeader(), env.IndicationPayload()
			if !bytes.Equal(hdr, want.Header) || !bytes.Equal(payload, want.Payload) {
				t.Fatalf("%s iter %d: header/payload differ from Decode", c.Name(), i)
			}
			for _, v := range [][]byte{hdr, payload} {
				if len(v) > 0 && !within(v, wire) {
					t.Fatalf("%s iter %d: envelope accessor copied out of the frame", c.Name(), i)
				}
			}
			pdu, err := env.PDU()
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if !reflect.DeepEqual(pdu, dec) {
				t.Fatalf("%s iter %d: Envelope.PDU differs from Decode\n got %+v\nwant %+v", c.Name(), i, pdu, dec)
			}
			for _, v := range [][]byte{pdu.(*Indication).Header, pdu.(*Indication).Payload, pdu.(*Indication).CallProcessID} {
				if within(v, wire) {
					t.Fatalf("%s iter %d: Envelope.PDU aliases the frame", c.Name(), i)
				}
			}
		}
	}
}

// Every truncation of a valid PER indication must fail closed through
// the view path: an error, no panic, no read past the slice (the cap is
// clipped so an over-read would fault). The same holds for a PER message
// of any type, and every truncation and seeded bit flip of a message of
// any type passes the failsClosed oracle under both codecs.
func TestPEREnvelopeTruncationFailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := NewPERCodec()
	for i := 0; i < 50; i++ {
		wire := encodeCopy(t, c, randomViewIndication(rng))
		for n := 0; n < len(wire); n++ {
			env, err := c.Envelope(wire[:n:n])
			if err == nil {
				t.Fatalf("iter %d: %d of %d bytes accepted as %s", i, n, len(wire), env.Type())
			}
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("iter %d: truncation to %d bytes: %v, want ErrBadMessage", i, n, err)
			}
		}
	}
	perType := 4
	if testing.Short() {
		perType = 2
	}
	for _, pdu := range sweepPDUs(perType, 14) {
		for _, c := range codecs(t) {
			wire := encodeCopy(t, c, pdu)
			for n := 0; n < len(wire); n++ {
				cut := wire[:n:n]
				if _, err := c.Envelope(cut); c.Name() == string(SchemeASN) && !errors.Is(err, ErrBadMessage) {
					t.Fatalf("%s: truncation to %d of %d bytes: %v, want ErrBadMessage", pdu.MsgType(), n, len(wire), err)
				}
				failsClosed(t, c, cut)
			}
			for i := 0; i < 32; i++ {
				flipped := append([]byte(nil), wire...)
				flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
				failsClosed(t, c, flipped)
			}
		}
	}
}

// The PER indication envelope must not allocate: it is the per-message
// cost of the controller's receive loop.
func TestPEREnvelopeIndicationAllocs(t *testing.T) {
	c := NewPERCodec()
	wire := encodeCopy(t, c, &Indication{
		RequestID: RequestID{1, 2}, RANFunctionID: 142, ActionID: 1, SN: 9,
		Header: []byte{1}, Payload: bytes.Repeat([]byte{7}, 40), CallProcessID: []byte{3},
	})
	allocs := testing.AllocsPerRun(200, func() {
		env, err := c.Envelope(wire)
		if err != nil || len(env.IndicationPayload()) != 40 {
			t.Fatal("envelope failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("PER indication envelope allocates %.1f times per message", allocs)
	}
}
