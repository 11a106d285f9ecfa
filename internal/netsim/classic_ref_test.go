package netsim

import (
	"repro/internal/inet"
	"repro/internal/sim"
)

// classicRef is the two-event link model that Iface.Send reproduces
// analytically, kept as the reference the differentials diff against. It
// is one direction of a droptail link: a packet that finds the transmitter
// idle starts serializing, a txDone event at the end of serialization puts
// it on the wire and starts the next queued packet, and a deliver event one
// propagation delay later hands it to recv. Both events go through
// Engine.Schedule at the instants and in the order Iface's phantom keys
// assume, so their equal-instant ordering keys are the ones Iface pins.
type classicRef struct {
	engine *sim.Engine
	cfg    LinkConfig
	recv   func(pkt *inet.Packet)

	// Impair, DiscardHook and DropHook behave as on Iface.
	Impair      func(pkt *inet.Packet) bool
	DiscardHook func(pkt *inet.Packet)
	DropHook    func(pkt *inet.Packet)

	queue       []*inet.Packet
	queuedBytes int
	busy        bool
	txPkt       *inet.Packet
	inflight    []*inet.Packet
	sent        uint64
	dropped     uint64
	txDoneFn    sim.Handler
	deliverFn   sim.Handler
}

func newClassicRef(e *sim.Engine, cfg LinkConfig, recv func(pkt *inet.Packet)) *classicRef {
	r := &classicRef{engine: e, cfg: cfg, recv: recv}
	r.txDoneFn, r.deliverFn = r.txDone, r.deliver
	return r
}

func (r *classicRef) Sent() uint64    { return r.sent }
func (r *classicRef) Dropped() uint64 { return r.dropped }
func (r *classicRef) QueueLen() int   { return len(r.queue) }
func (r *classicRef) QueueBytes() int { return r.queuedBytes }

func (r *classicRef) Send(pkt *inet.Packet) {
	if r.Impair != nil && r.Impair(pkt) {
		if r.DiscardHook != nil {
			r.DiscardHook(pkt)
		}
		return
	}
	if r.busy {
		limit := r.cfg.QueueLimit
		if limit == 0 {
			limit = DefaultQueueLimit
		}
		if len(r.queue) >= limit || (r.cfg.QueueLimitBytes > 0 && r.queuedBytes+pkt.Size > r.cfg.QueueLimitBytes) {
			r.dropped++
			if r.DropHook != nil {
				r.DropHook(pkt)
			}
			return
		}
		r.queue = append(r.queue, pkt)
		r.queuedBytes += pkt.Size
		return
	}
	r.transmit(pkt)
}

func (r *classicRef) transmit(pkt *inet.Packet) {
	r.busy = true
	r.txPkt = pkt
	var txTime sim.Time
	if bps := r.cfg.BandwidthBPS; bps > 0 {
		txTime = sim.Time(int64(pkt.Size) * 8 * int64(sim.Second) / bps)
	}
	r.engine.Schedule(txTime, r.txDoneFn)
}

func (r *classicRef) txDone() {
	r.sent++
	r.inflight = append(r.inflight, r.txPkt)
	r.engine.Schedule(r.cfg.Delay, r.deliverFn)
	r.busy = false
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.queuedBytes -= next.Size
		r.transmit(next)
	}
}

func (r *classicRef) deliver() {
	pkt := r.inflight[0]
	r.inflight = r.inflight[1:]
	r.recv(pkt)
}
