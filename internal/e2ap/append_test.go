package e2ap

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// The append-style encoders must be byte-identical to Encode: the wire
// format is the protocol contract, and EncodeAppend differs only in
// buffer discipline. Checked for every PDU type, both codecs, with nil
// and non-empty prefixes.
func TestEncodeAppendMatchesEncode(t *testing.T) {
	prefixes := [][]byte{nil, {}, []byte("prefix-bytes"), bytes.Repeat([]byte{0xA5}, 37)}
	for _, c := range codecs(t) {
		for _, pdu := range samplePDUs() {
			want, err := c.Encode(pdu)
			if err != nil {
				t.Fatalf("%s encode %s: %v", c.Name(), pdu.MsgType(), err)
			}
			want = append([]byte(nil), want...)
			for _, prefix := range prefixes {
				dst := append([]byte(nil), prefix...)
				out, err := c.EncodeAppend(dst, pdu)
				if err != nil {
					t.Fatalf("%s append %s: %v", c.Name(), pdu.MsgType(), err)
				}
				if !bytes.Equal(out[:len(prefix)], prefix) {
					t.Fatalf("%s append %s: prefix clobbered", c.Name(), pdu.MsgType())
				}
				if got := out[len(prefix):]; !bytes.Equal(got, want) {
					t.Fatalf("%s append %s: appended bytes differ from Encode\n got %x\nwant %x",
						c.Name(), pdu.MsgType(), got, want)
				}
			}
		}
	}
}

// Appended output must decode like freshly encoded output, even when
// several messages share one buffer back to back — the exact shape the
// batched indication path produces.
func TestEncodeAppendBackToBackDecodes(t *testing.T) {
	for _, c := range codecs(t) {
		var buf []byte
		var bounds []int
		pdus := samplePDUs()
		for _, pdu := range pdus {
			out, err := c.EncodeAppend(buf, pdu)
			if err != nil {
				t.Fatalf("%s append %s: %v", c.Name(), pdu.MsgType(), err)
			}
			buf = out
			bounds = append(bounds, len(buf))
		}
		start := 0
		for i, pdu := range pdus {
			wire := buf[start:bounds[i]]
			start = bounds[i]
			env, err := c.Envelope(wire)
			if err != nil {
				t.Fatalf("%s envelope appended %s: %v", c.Name(), pdu.MsgType(), err)
			}
			if env.Type() != pdu.MsgType() {
				t.Fatalf("%s appended %s decoded as %s", c.Name(), pdu.MsgType(), env.Type())
			}
		}
	}
}

// Property check over randomized indications and prefixes: the hot-path
// message shape with arbitrary header/payload contents and lengths.
func TestEncodeAppendIndicationProperty(t *testing.T) {
	for _, c := range codecs(t) {
		c := c
		prop := func(prefix, header, payload []byte, sn uint32, action uint8) bool {
			pdu := &Indication{
				RequestID:     RequestID{7, 9},
				RANFunctionID: 142,
				ActionID:      action,
				SN:            sn,
				Class:         IndicationReport,
				Header:        header,
				Payload:       payload,
			}
			want, err := c.Encode(pdu)
			if err != nil {
				return false
			}
			want = append([]byte(nil), want...)
			out, err := c.EncodeAppend(append([]byte(nil), prefix...), pdu)
			if err != nil {
				return false
			}
			return bytes.Equal(out[:len(prefix)], prefix) && bytes.Equal(out[len(prefix):], want)
		}
		cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// FuzzEncodeAppendIndication drives the same identity with fuzzed
// buffers, then reads the appended message back through the Envelope
// view (run with `go test -fuzz=FuzzEncodeAppendIndication`; seeds
// execute as regular unit tests).
func FuzzEncodeAppendIndication(f *testing.F) {
	f.Add([]byte{}, []byte{1, 2}, []byte{3, 4, 5})
	f.Add([]byte("pfx"), []byte{}, bytes.Repeat([]byte{0x42}, 300))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), []byte{0}, []byte{})
	f.Fuzz(func(t *testing.T, prefix, header, payload []byte) {
		pdu := &Indication{
			RequestID:     RequestID{1, 2},
			RANFunctionID: 3,
			ActionID:      4,
			SN:            5,
			Class:         IndicationInsert,
			Header:        header,
			Payload:       payload,
		}
		for _, c := range []Codec{NewPERCodec(), NewFlatCodec()} {
			want, err := c.Encode(pdu)
			if err != nil {
				t.Fatalf("%s encode: %v", c.Name(), err)
			}
			want = append([]byte(nil), want...)
			out, err := c.EncodeAppend(append([]byte(nil), prefix...), pdu)
			if err != nil {
				t.Fatalf("%s append: %v", c.Name(), err)
			}
			if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
				t.Fatalf("%s: appended encoding diverges from Encode", c.Name())
			}
			env, err := c.Envelope(out[len(prefix):])
			if err != nil {
				t.Fatalf("%s envelope: %v", c.Name(), err)
			}
			if env.Type() != TypeIndication || env.RequestID() != pdu.RequestID || env.RANFunctionID() != pdu.RANFunctionID ||
				!bytes.Equal(env.IndicationHeader(), header) || !bytes.Equal(env.IndicationPayload(), payload) {
				t.Fatalf("%s: envelope view diverges from the encoded indication", c.Name())
			}
			got, err := env.PDU()
			if err != nil {
				t.Fatalf("%s envelope PDU: %v", c.Name(), err)
			}
			if m := got.(*Indication); m.SN != pdu.SN || m.ActionID != pdu.ActionID || m.Class != pdu.Class ||
				!bytes.Equal(m.Header, header) || !bytes.Equal(m.Payload, payload) {
				t.Fatalf("%s: envelope PDU diverges from the encoded indication", c.Name())
			}
		}
	})
}
