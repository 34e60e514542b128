package ran

import "math"

// TrafficSource generates downlink packets for one UE. Tick is called
// once per TTI with the current simulator time; emit injects a packet
// into the UE's bearer path. emit copies the packet, so a source may
// fill one scratch Packet and reuse it for every emit.
//
// Sources are only ticked while their UE is in the cell's active set. A
// source that also implements Waker tells the cell when it next needs a
// tick, letting the UE park in between (idle UEs cost nothing per TTI);
// sources without Waker are assumed due every TTI, which keeps their UE
// permanently active. A source that keeps delivery or loss counts
// implements packetSink; its UE tells it how each of its packets ended.
type TrafficSource interface {
	Tick(now int64, emit func(*Packet))
}

// Waker is the optional scheduling contract of a TrafficSource: given
// that Tick(now) just ran, NextWakeup returns the next time (> now) at
// which Tick would do work, or -1 if it never will again. Answers <= now
// are treated as now+1.
type Waker interface {
	NextWakeup(now int64) int64
}

// CBR is a constant-bit-rate source: one packet of Size bytes every
// IntervalMS. With Size=172 and IntervalMS=20 it reproduces the paper's
// G.711 VoIP flow (irtt, 64 kbps). It records per-packet round-trip
// times assuming a fixed uplink return delay, like irtt does.
type CBR struct {
	Flow       FiveTuple
	Size       int
	IntervalMS int64
	// StartMS delays the first packet.
	StartMS int64
	// ReturnDelayMS models the uplink (reply) path; irtt echoes are
	// small and skip the bloated downlink buffer.
	ReturnDelayMS int64

	seq     uint64
	sent    uint64
	recvd   uint64
	dropped uint64
	rtts    []int64

	pkt Packet // emit scratch: a local would escape to the heap through emit
}

// Tick implements TrafficSource.
func (c *CBR) Tick(now int64, emit func(*Packet)) {
	if now < c.StartMS || c.IntervalMS <= 0 {
		return
	}
	if (now-c.StartMS)%c.IntervalMS != 0 {
		return
	}
	c.seq++
	c.sent++
	c.pkt = Packet{Flow: c.Flow, Size: c.Size, Seq: c.seq, Sent: now}
	emit(&c.pkt)
}

// packetDone implements packetSink: a delivery records the round trip.
func (c *CBR) packetDone(p *Packet, now int64, delivered bool) {
	if !delivered {
		c.dropped++
		return
	}
	c.recvd++
	c.rtts = append(c.rtts, (now-p.Sent)+c.ReturnDelayMS)
}

// NextWakeup implements Waker: the next grid point of the CBR schedule.
func (c *CBR) NextWakeup(now int64) int64 {
	if c.IntervalMS <= 0 {
		return -1
	}
	if now < c.StartMS {
		return c.StartMS
	}
	return c.StartMS + ((now-c.StartMS)/c.IntervalMS+1)*c.IntervalMS
}

// RTTs returns the recorded round-trip samples in ms.
func (c *CBR) RTTs() []int64 { return c.rtts }

// Counters returns sent/received/dropped packet counts.
func (c *CBR) Counters() (sent, recvd, dropped uint64) { return c.sent, c.recvd, c.dropped }

// Saturating is an iperf-UDP-like source that emits RateBytesPerMS every
// TTI, enough to exhaust any slice share when RateBytesPerMS exceeds the
// cell drain rate.
type Saturating struct {
	Flow           FiveTuple
	PktSize        int
	RateBytesPerMS int
	StartMS        int64
	StopMS         int64 // 0 = never

	seq     uint64
	carry   int
	dropped uint64

	pkt Packet // emit scratch, as in CBR
}

// Tick implements TrafficSource.
func (s *Saturating) Tick(now int64, emit func(*Packet)) {
	if now < s.StartMS || (s.StopMS > 0 && now >= s.StopMS) {
		return
	}
	size := s.PktSize
	if size <= 0 {
		size = 1500
	}
	budget := s.RateBytesPerMS + s.carry
	for budget >= size {
		s.seq++
		s.pkt = Packet{Flow: s.Flow, Size: size, Seq: s.seq, Sent: now}
		emit(&s.pkt)
		budget -= size
	}
	s.carry = budget
}

// packetDone implements packetSink: only losses are counted.
func (s *Saturating) packetDone(_ *Packet, _ int64, delivered bool) {
	if !delivered {
		s.dropped++
	}
}

// NextWakeup implements Waker: due every TTI inside [StartMS, StopMS).
func (s *Saturating) NextWakeup(now int64) int64 {
	if s.StopMS > 0 && now+1 >= s.StopMS {
		return -1
	}
	if now < s.StartMS {
		return s.StartMS
	}
	return now + 1
}

// Dropped returns packets lost to queue overflow.
func (s *Saturating) Dropped() uint64 { return s.dropped }

// CubicFlow models a TCP Cubic bulk transfer (the iperf3 flow of
// §6.1.1). It is loss-based: the window grows until a drop-tail loss in
// the RLC buffer, so when it shares a FIFO with latency-sensitive
// traffic it bloats the buffer — the phenomenon of Fig. 11a.
//
// The model is self-clocked through the simulator: packets are emitted
// while bytes in flight are below cwnd; deliveries generate ACKs after
// AckDelayMS (uplink path); drops trigger Cubic's multiplicative
// decrease and window-growth epoch reset.
type CubicFlow struct {
	Flow FiveTuple
	// MSS is the segment size (default 1448).
	MSS int
	// AckDelayMS is the uplink ACK path delay (default 10 ms).
	AckDelayMS int64
	StartMS    int64

	cwnd     float64 // segments
	ssthresh float64
	wMax     float64
	epoch    int64 // epoch start time, -1 when unset
	inflight int   // segments in flight
	seq      uint64
	recover  uint64 // loss-recovery horizon

	acks []pendingAck

	delivered uint64 // segments
	losses    uint64

	pkt Packet // emit scratch, as in CBR
}

type pendingAck struct {
	due int64
	seq uint64
}

// Cubic constants (RFC 8312): C scaling and β multiplicative decrease.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

func (f *CubicFlow) mss() int {
	if f.MSS > 0 {
		return f.MSS
	}
	return 1448
}

func (f *CubicFlow) ackDelay() int64 {
	if f.AckDelayMS > 0 {
		return f.AckDelayMS
	}
	return 10
}

// Tick implements TrafficSource.
func (f *CubicFlow) Tick(now int64, emit func(*Packet)) {
	if now < f.StartMS {
		return
	}
	if f.cwnd == 0 {
		f.cwnd = 10 // RFC 6928 initial window
		f.ssthresh = math.Inf(1)
		f.epoch = -1
	}
	// Process due ACKs.
	i := 0
	for ; i < len(f.acks) && f.acks[i].due <= now; i++ {
		f.inflight--
		f.delivered++
		f.onAck(now)
	}
	if i > 0 {
		f.acks = append(f.acks[:0], f.acks[i:]...)
	}
	// Emit while the window allows. A segment dropped on enqueue comes
	// back through onLoss inside emit, taking inflight down with it: the
	// sender stops for this tick, as a real one learns of the loss only
	// later. Else a queue that drops every segment (full of another
	// source's packets) would keep inflight below cwnd for ever.
	for f.inflight < int(f.cwnd) {
		f.seq++
		f.inflight++
		sent := f.inflight
		f.pkt = Packet{Flow: f.Flow, Size: f.mss(), Seq: f.seq, Sent: now}
		emit(&f.pkt)
		if f.inflight < sent {
			break
		}
	}
}

// packetDone implements packetSink: a delivery schedules its ACK on the
// uplink, a drop is a loss.
func (f *CubicFlow) packetDone(p *Packet, now int64, delivered bool) {
	if delivered {
		f.acks = append(f.acks, pendingAck{due: now + f.ackDelay(), seq: p.Seq})
		return
	}
	f.onLoss(p.Seq, now)
}

// onAck applies Cubic window growth.
func (f *CubicFlow) onAck(now int64) {
	if f.cwnd < f.ssthresh {
		f.cwnd++ // slow start
		return
	}
	if f.epoch < 0 {
		f.epoch = now
		if f.wMax < f.cwnd {
			f.wMax = f.cwnd
		}
	}
	t := float64(now-f.epoch) / 1000.0
	k := math.Cbrt(f.wMax * (1 - cubicBeta) / cubicC)
	target := cubicC*math.Pow(t-k, 3) + f.wMax
	if target > f.cwnd {
		// Approach the cubic target gradually (per-ACK increase).
		f.cwnd += (target - f.cwnd) / f.cwnd
	} else {
		f.cwnd += 0.01 // TCP-friendly floor
	}
}

// onLoss applies multiplicative decrease once per window of loss.
func (f *CubicFlow) onLoss(seq uint64, now int64) {
	f.inflight--
	if seq <= f.recover {
		return // still recovering from the same loss event
	}
	f.losses++
	f.recover = f.seq
	f.wMax = f.cwnd
	f.cwnd *= cubicBeta
	if f.cwnd < 2 {
		f.cwnd = 2
	}
	f.ssthresh = f.cwnd
	f.epoch = -1
}

// NextWakeup implements Waker: a Cubic flow is self-clocked through the
// simulator (pending ACKs and window growth every TTI), so once started
// it is always due next slot.
func (f *CubicFlow) NextWakeup(now int64) int64 {
	if now < f.StartMS {
		return f.StartMS
	}
	return now + 1
}

// Stats returns delivered segments and loss events.
func (f *CubicFlow) Stats() (delivered, losses uint64) { return f.delivered, f.losses }

// Cwnd returns the current congestion window in segments.
func (f *CubicFlow) Cwnd() float64 { return f.cwnd }
