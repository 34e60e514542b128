package ran

// Proto identifies a transport protocol in a packet 5-tuple.
type Proto uint8

// Transport protocols.
const (
	ProtoUDP Proto = 17
	ProtoTCP Proto = 6
)

// FiveTuple identifies a flow, as used by the TC SM's OSI classifier
// (§6.1.1: "source and destination addresses and ports, as well as,
// protocol").
type FiveTuple struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// Packet is a downlink user-plane packet traversing
// SDAP → TC → PDCP → RLC → MAC. It holds no pointers: the TC and RLC
// queues store packets by value, so a million queued packets are one
// pointer-free buffer per queue that the garbage collector never scans.
type Packet struct {
	Flow FiveTuple
	Size int // bytes
	Seq  uint64
	// EnqueueTC/EnqueueRLC are simulator timestamps (ms) stamped as the
	// packet enters each buffer, for sojourn-time accounting.
	EnqueueTC  int64
	EnqueueRLC int64
	// Sent is when the application handed the packet to the network.
	Sent int64
	// src is 1 + the index of the emitting traffic source in its UE's
	// source list; 0 means none. The UE stamps it on emit and uses it
	// to tell that source how the packet ended.
	src int32
}

// packetSink learns how a packet ends: delivered, when the MAC sends
// its last byte, or dropped by a full queue. A traffic source that keeps
// delivery or loss bookkeeping implements it; a UE implements it to
// dispatch to the source named by the packet's src. p points into the
// queue that held the packet and is valid only during the call.
type packetSink interface {
	packetDone(p *Packet, now int64, delivered bool)
}

// sourceDone tells the source in sources that emitted p how p ended,
// if that source keeps count.
func sourceDone(sources []TrafficSource, p *Packet, now int64, delivered bool) {
	if p.src == 0 {
		return
	}
	if s, ok := sources[p.src-1].(packetSink); ok {
		s.packetDone(p, now, delivered)
	}
}

// pktRing is a FIFO of packet values in a circular buffer. It grows on
// a push into a full buffer and never shrinks, so a queue at steady
// state enqueues and dequeues without allocating.
type pktRing struct {
	buf  []Packet
	head int // index of the oldest packet
	n    int // queued packets
}

// push copies p to the tail of the ring.
func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = *p
	r.n++
}

// front returns the oldest packet, or nil when the ring is empty. The
// pointer is valid until the next push.
func (r *pktRing) front() *Packet {
	if r.n == 0 {
		return nil
	}
	return &r.buf[r.head]
}

// pop removes the oldest packet and returns it. The ring must not be
// empty; the pointer is valid until the next push.
func (r *pktRing) pop() *Packet {
	p := &r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return p
}

// grow enlarges a full ring: from one slot it doubles up to 256 slots,
// then grows by a quarter, so a deep queue does not over-reserve by up
// to half its size. The queued packets are unwrapped to the front.
func (r *pktRing) grow() {
	n := len(r.buf)
	switch {
	case n == 0:
		n = 1
	case n < 256:
		n *= 2
	default:
		n += n / 4
	}
	buf := make([]Packet, n)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
