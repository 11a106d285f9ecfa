package netsim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/inet"
	"repro/internal/sim"
)

// ShardExchange owns the cross-shard mailboxes of a partitioned topology.
// A link created through ShardExchange.Connect joins nodes whose engines
// belong to different shards of a sim.ShardGroup: during an epoch each
// direction buffers its transmissions in an outbox private to the sending
// shard, and Flush — installed as the group's exchange callback —
// migrates them into the receiving engines at the barrier.
//
// Flush runs single-threaded over ports in creation order, so the sequence
// numbers the receiving engines assign to arrival events are a pure
// function of the partition, never of worker scheduling: sharded runs are
// deterministic for a fixed shard count.
type ShardExchange struct {
	ports []*xPort
	// minDelay is the smallest one-way delay over all cross-shard links,
	// which is exactly the lookahead a ShardGroup over this partition may
	// use. Zero while no cross-shard link exists.
	minDelay sim.Time
	// dirtyPorts counts ports whose outbox is non-empty. A port increments
	// it on the first park since the last flush (from its owning shard's
	// goroutine, hence the atomic); Flush resets it at the barrier. It is
	// both the Flush fast path and the Pending oracle a ShardGroup uses to
	// widen solo rounds.
	dirtyPorts atomic.Int64
	// flushes/elidedFlushes count barrier flushes that did work vs. were
	// skipped because no outbox held packets. Both are a pure function of
	// the partition and the epoch protocol, never of worker scheduling.
	flushes       uint64
	elidedFlushes uint64
}

// NewShardExchange returns an empty exchange.
func NewShardExchange() *ShardExchange { return &ShardExchange{} }

// Lookahead returns the minimum one-way delay over all cross-shard links
// registered so far (0 if none): the widest epoch a ShardGroup over this
// partition can safely use.
func (x *ShardExchange) Lookahead() sim.Time { return x.minDelay }

// Ports returns the number of registered mailbox directions (two per
// cross-shard link).
func (x *ShardExchange) Ports() int { return len(x.ports) }

// Pending reports whether any outbox currently holds parked traffic.
// Install it as the group's pending oracle (ShardGroup.SetExchangePending):
// it is safe to call from the one shard running in a solo round, and after
// a Flush it reads false until the next transmission is parked.
func (x *ShardExchange) Pending() bool { return x.dirtyPorts.Load() != 0 }

// Flushes returns how many barrier flushes migrated at least one packet;
// ElidedFlushes how many were skipped outright because every outbox was
// empty. Their sum is the number of Flush calls.
func (x *ShardExchange) Flushes() uint64 { return x.flushes }

// ElidedFlushes returns the number of Flush calls skipped by the dirty-flag
// fast path.
func (x *ShardExchange) ElidedFlushes() uint64 { return x.elidedFlushes }

// Connect creates a duplex link between nodes driven by the given engines.
// When the engines are the same shard it degrades to a plain Connect — a
// mailbox would defer same-engine deliveries to the next barrier and
// mis-time them — so callers can wire a partition without caring which
// pairs happened to land on the same shard. Cross-shard links must have a
// positive propagation delay: a zero-delay cross link would make the
// group's lookahead zero.
func (x *ShardExchange) Connect(ea, eb *sim.Engine, a, b Node, cfg LinkConfig) *Link {
	if ea == nil || eb == nil {
		panic("netsim: ShardExchange.Connect with nil engine")
	}
	if ea == eb {
		return Connect(ea, a, b, cfg)
	}
	if cfg.Delay < 1 {
		panic(fmt.Sprintf("netsim: cross-shard link %s--%s needs a positive delay", a.Name(), b.Name()))
	}
	l := newLink(ea, eb, a, b, cfg)
	// One mailbox per direction, delivering into the far side's engine.
	pa := &xPort{owner: x, recv: eb, dst: l.b}
	pb := &xPort{owner: x, recv: ea, dst: l.a}
	pa.deliverFn = pa.deliver
	pb.deliverFn = pb.deliver
	l.a.xport = pa
	l.b.xport = pb
	x.ports = append(x.ports, pa, pb)
	if x.minDelay == 0 || cfg.Delay < x.minDelay {
		x.minDelay = cfg.Delay
	}
	return l
}

// Flush migrates every outbox entry buffered since the previous barrier
// into the receiving engines. It must run with all shards parked (install
// it via ShardGroup.SetExchange); it is the only code that touches both
// sides of a port. Steady state is allocation-free: outboxes, pending
// FIFOs, and the receiving engines' event slots are all recycled.
func (x *ShardExchange) Flush() {
	if x.dirtyPorts.Load() == 0 {
		x.elidedFlushes++
		return
	}
	x.flushes++
	x.dirtyPorts.Store(0)
	for _, p := range x.ports {
		if !p.dirty {
			continue
		}
		p.dirty = false
		for i := range p.outbox {
			e := &p.outbox[i]
			p.pending = append(p.pending, e.pkt)
			p.recv.At(e.at, p.deliverFn)
			e.pkt = nil
		}
		p.outbox = p.outbox[:0]
	}
}

// xEntry is one finished cross-shard transmission awaiting the barrier.
type xEntry struct {
	at  sim.Time // arrival instant at the far end (send time + delay)
	pkt *inet.Packet
}

// xPort is one direction of a cross-shard link: an outbox filled by the
// sending shard during its epoch and a pending FIFO consumed by arrival
// events on the receiving engine. Arrival instants are nondecreasing per
// port (transmissions finish in time order and the delay is constant), so
// the FIFO head is always the packet whose arrival event is firing —
// exactly the invariant Iface.deliver relies on for in-shard links.
type xPort struct {
	owner     *ShardExchange
	recv      *sim.Engine
	dst       *Iface // receiving interface (counts the delivery)
	outbox    []xEntry
	pending   []*inet.Packet
	deliverFn sim.Handler
	// dirty marks a non-empty outbox. Owned by the sending shard between
	// barriers (set in park), read and cleared by Flush at the barrier.
	dirty bool
}

// park buffers one transmission for the next barrier flush and
// maintains the exchange's dirty accounting. It runs on the sending
// shard's goroutine mid-epoch; the 0→1 transition is the only point that
// touches shared state, through owner.dirtyPorts.
func (p *xPort) park(at sim.Time, pkt *inet.Packet) {
	if !p.dirty {
		p.dirty = true
		p.owner.dirtyPorts.Add(1)
	}
	p.outbox = append(p.outbox, xEntry{at: at, pkt: pkt})
}

// deliver fires on the receiving engine at the arrival instant and hands
// the oldest pending packet to the destination node.
func (p *xPort) deliver() {
	pkt := p.pending[0]
	copy(p.pending, p.pending[1:])
	p.pending[len(p.pending)-1] = nil
	p.pending = p.pending[:len(p.pending)-1]
	p.dst.delivers++
	p.dst.node.HandlePacket(p.dst, pkt)
}
