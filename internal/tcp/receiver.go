package tcp

import (
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Receiver is the data sink of a connection: it acknowledges cumulatively,
// buffers out-of-order segments, and records the receive-side traces the
// thesis plots.
type Receiver struct {
	engine *sim.Engine
	src    inet.Addr // our address (ACK source)
	dst    inet.Addr // the sender
	flow   inet.FlowID
	send   func(*inet.Packet)

	rcvNxt     uint64
	outOfOrder map[uint64]int // seq → len

	delivered uint64 // cumulative in-order bytes

	// RecvTrace records (time, seq) of every data segment that arrives;
	// Goodput buckets in-order bytes for the Figure 4.14 throughput curve.
	RecvTrace stats.SeqTrace
	Goodput   *stats.TimeSeries

	// Alloc, if set, supplies zeroed packet structs for ACKs (typically a
	// topology's recycling pool); nil falls back to plain allocation.
	Alloc func() *inet.Packet
}

// NewReceiver creates a receiver acknowledging toward dst. send transmits
// the ACKs. window is the goodput bucketing interval (zero disables the
// series).
func NewReceiver(engine *sim.Engine, src, dst inet.Addr, flow inet.FlowID,
	send func(*inet.Packet), window sim.Time) *Receiver {
	if send == nil {
		panic("tcp: NewReceiver with nil send")
	}
	r := &Receiver{
		engine:     engine,
		src:        src,
		dst:        dst,
		flow:       flow,
		send:       send,
		outOfOrder: make(map[uint64]int),
	}
	if window > 0 {
		r.Goodput = stats.NewTimeSeries(window)
	}
	return r
}

// RcvNxt returns the next expected byte.
func (r *Receiver) RcvNxt() uint64 { return r.rcvNxt }

// Delivered returns the cumulative in-order byte count.
func (r *Receiver) Delivered() uint64 { return r.delivered }

// Handle processes one arriving segment.
func (r *Receiver) Handle(seg *Segment) {
	if seg == nil || !seg.IsData() {
		return
	}
	now := r.engine.Now()
	r.RecvTrace.Record(now, seg.Seq)

	switch {
	case seg.Seq == r.rcvNxt:
		r.advance(seg.Len, now)
		// Consume any contiguous buffered segments.
		for {
			l, ok := r.outOfOrder[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.outOfOrder, r.rcvNxt)
			r.advance(l, now)
		}
	case seg.Seq > r.rcvNxt:
		r.outOfOrder[seg.Seq] = seg.Len
	default:
		// Below rcvNxt: a spurious retransmission; re-ACK.
	}
	r.sendAck()
}

func (r *Receiver) advance(length int, now sim.Time) {
	r.rcvNxt += uint64(length)
	r.delivered += uint64(length)
	if r.Goodput != nil {
		r.Goodput.Add(now, float64(length)*8) // bits
	}
}

func (r *Receiver) sendAck() {
	pkt := newPacket(r.Alloc)
	pkt.Src, pkt.Dst = r.src, r.dst
	pkt.Proto = inet.ProtoTCP
	pkt.Flow = r.flow
	pkt.Size = HeaderSize
	pkt.Created = r.engine.Now()
	pkt.Payload = &Segment{Ack: true, AckNo: r.rcvNxt}
	r.send(pkt)
}
