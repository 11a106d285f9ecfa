package wireless

import (
	"math"

	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// APConfig configures an access point's radio.
type APConfig struct {
	// Pos is the AP's position on the one-dimensional track, meters.
	Pos float64
	// Radius is the coverage radius, meters (112 m in the thesis).
	Radius float64
	// BandwidthBPS is the radio line rate (11 Mb/s for 802.11b). Zero
	// means no serialization delay.
	BandwidthBPS int64
	// AirDelay is the over-the-air propagation plus MAC access delay per
	// frame.
	AirDelay sim.Time
	// QueueLimit bounds the shared downlink queue, in packets. Zero
	// selects netsim.DefaultQueueLimit.
	QueueLimit int
	// ReturnUndeliverable hands frames whose station detached back to the
	// wired router instead of dropping them, modelling a deployment where
	// the downlink queue logically belongs to the access router (as in the
	// thesis' ns-2 node structure). Each frame bounces at most once.
	ReturnUndeliverable bool
	// Signal is the path-loss model backing RSSI queries (nil selects
	// DefaultSignal). Coverage itself remains radius-based.
	Signal SignalModel
}

// Advertisement is the router-advertisement beacon relayed by an access
// point on behalf of its access router. Stations use it for movement
// detection (hearing a new AP's advertisement is the thesis' link-layer
// source trigger).
type Advertisement struct {
	// AP that emitted the beacon.
	AP *AccessPoint
	// Router is the advertising access router's address.
	Router inet.Addr
	// Net is the network prefix the router serves.
	Net inet.NetID
	// Interval is the advertisement period, so stations can infer
	// lifetime.
	Interval sim.Time
}

// AccessPoint bridges its access router's wired interface onto the radio.
// It implements netsim.Node for the wired side.
type AccessPoint struct {
	name   string
	cfg    APConfig
	engine *sim.Engine
	medium *Medium
	wired  *netsim.Iface

	// fused selects the analytic downlink transmit path; latched at
	// construction from FusedAir.
	fused bool

	// Classic two-event downlink transmitter state (SetFusedAir(false)).
	// txPkt/inflight/txDoneFn/airFn mirror netsim.Iface's zero-alloc
	// transmit: handlers are pre-bound once and frames propagate through a
	// FIFO (AirDelay is constant, so arrivals complete in transmission
	// order). The in-flight FIFO is shared with the fused path.
	busy     bool
	queue    fifo[*inet.Packet]
	txPkt    *inet.Packet
	inflight fifo[*inet.Packet]
	txDoneFn sim.Handler
	airFn    sim.Handler

	// Analytic downlink transmit state (DESIGN.md §13).
	clock airClock

	airDrops uint64
	// AirDropHook observes packets transmitted while the destination
	// station was unreachable (detached or out of coverage) — the
	// packet-loss mechanism of an unbuffered handoff.
	AirDropHook func(pkt *inet.Packet)

	raTicker *sim.Ticker
	adv      Advertisement
}

// NewAccessPoint creates an access point and registers it with the medium.
func NewAccessPoint(name string, medium *Medium, cfg APConfig) *AccessPoint {
	// Zero-bandwidth radios always take the classic path (see fused.go).
	ap := &AccessPoint{name: name, cfg: cfg, engine: medium.engine, medium: medium,
		fused: FusedAir() && cfg.BandwidthBPS > 0}
	ap.txDoneFn = ap.txDone
	ap.airFn = ap.airArrive
	medium.addAP(ap)
	return ap
}

// Name implements netsim.Node.
func (ap *AccessPoint) Name() string { return ap.name }

// Pos returns the AP's position.
func (ap *AccessPoint) Pos() float64 { return ap.cfg.Pos }

// Covers reports whether a position is within radio range.
func (ap *AccessPoint) Covers(pos float64) bool {
	return math.Abs(pos-ap.cfg.Pos) <= ap.cfg.Radius
}

// AirDrops counts downlink packets lost because no station accepted them.
func (ap *AccessPoint) AirDrops() uint64 { return ap.airDrops }

// Sent counts downlink frames fully serialized onto the air.
func (ap *AccessPoint) Sent() uint64 {
	if ap.fused {
		ap.clock.drain(ap.engine)
	}
	return ap.clock.sent
}

// QueueLen returns the number of packets waiting on the downlink behind
// the frame being serialized.
func (ap *AccessPoint) QueueLen() int {
	if ap.fused {
		ap.clock.drain(ap.engine)
		if m := ap.clock.occupancy(); m > 0 {
			return m - 1
		}
		return 0
	}
	return ap.queue.Len()
}

// AttachIface is invoked by netsim.Connect; it records the wired uplink
// toward the access router.
func (ap *AccessPoint) AttachIface(ifc *netsim.Iface) { ap.wired = ifc }

// StartAdvertising begins periodic router advertisements with the given
// content. The first beacon is staggered by phase to model unsynchronized
// APs.
func (ap *AccessPoint) StartAdvertising(adv Advertisement, interval, phase sim.Time) {
	adv.AP = ap
	adv.Interval = interval
	ap.adv = adv
	if ap.raTicker != nil {
		ap.raTicker.Stop()
	}
	ap.raTicker = sim.NewTickerAt(ap.engine, phase, interval, ap.beacon)
}

// StopAdvertising halts the beacon.
func (ap *AccessPoint) StopAdvertising() {
	if ap.raTicker != nil {
		ap.raTicker.Stop()
	}
}

// beacon delivers the advertisement to every station currently in coverage,
// associated or not. The medium's position-bucket index narrows the scan to
// stations that can possibly be inside [Pos-Radius, Pos+Radius]; candidates
// are visited in registration order, exactly like the classic full scan.
func (ap *AccessPoint) beacon() {
	now := ap.engine.Now()
	for _, s := range ap.medium.buckets.candidates(ap.medium, ap.cfg.Pos, ap.cfg.Radius) {
		if s.hearsBeacons() && ap.Covers(s.Pos(now)) {
			s.deliverRA(ap.adv)
		}
	}
}

// HandlePacket implements netsim.Node: packets arriving from the wired side
// are transmitted on the shared downlink.
func (ap *AccessPoint) HandlePacket(in *netsim.Iface, pkt *inet.Packet) {
	ap.transmitDown(pkt)
}

func (ap *AccessPoint) queueLimit() int {
	if ap.cfg.QueueLimit == 0 {
		return netsim.DefaultQueueLimit
	}
	return ap.cfg.QueueLimit
}

// dropAir discards a downlink packet the radio could not serve.
func (ap *AccessPoint) dropAir(pkt *inet.Packet) {
	ap.airDrops++
	if ap.AirDropHook != nil {
		ap.AirDropHook(pkt)
	}
}

// transmitDown serializes pkt on the shared downlink.
func (ap *AccessPoint) transmitDown(pkt *inet.Packet) {
	if ap.fused {
		ap.sendFused(pkt)
		return
	}
	if ap.busy {
		if ap.queue.Len() >= ap.queueLimit() {
			ap.dropAir(pkt)
			return
		}
		ap.queue.Push(pkt)
		return
	}
	ap.startTx(pkt)
}

// sendFused admits a packet on the analytic downlink: one pre-bound
// delivery event at the instant the classic path's airArrive would fire,
// pinned at the same virtual key. The AP never detaches, so no repair
// machinery is needed (compare Station.nicReset).
func (ap *AccessPoint) sendFused(pkt *inet.Packet) {
	ap.clock.drain(ap.engine)
	if m := ap.clock.occupancy(); m > 0 && m-1 >= ap.queueLimit() {
		ap.dropAir(pkt)
		return
	}
	start, dep, idx := ap.clock.push(ap.engine, pkt.Size, ap.cfg.BandwidthBPS)
	ent := &ap.clock.ring[idx]
	ap.inflight.Push(pkt)
	ent.ref = ap.engine.AtPinned(dep+ap.cfg.AirDelay, dep, start, ent.pseq, ap.airFn)
}

func (ap *AccessPoint) startTx(pkt *inet.Packet) {
	ap.busy = true
	ap.txPkt = pkt
	var txTime sim.Time
	if ap.cfg.BandwidthBPS > 0 {
		txTime = sim.Time(int64(pkt.Size) * 8 * int64(sim.Second) / ap.cfg.BandwidthBPS)
	}
	ap.engine.Schedule(txTime, ap.txDoneFn)
}

// txDone fires when the current frame finishes serializing: it goes on the
// air and the next queued frame starts transmitting.
func (ap *AccessPoint) txDone() {
	ap.clock.sent++
	ap.inflight.Push(ap.txPkt)
	ap.txPkt = nil
	ap.engine.Schedule(ap.cfg.AirDelay, ap.airFn)
	ap.busy = false
	if ap.queue.Len() > 0 {
		ap.startTx(ap.queue.Pop())
	}
}

// airArrive fires one air delay after the frame departs; the constant
// delay keeps the in-flight FIFO in arrival order. Both transmit paths
// share this handler: the fused path pre-binds it per frame via AtPinned.
func (ap *AccessPoint) airArrive() {
	ap.deliver(ap.inflight.Pop())
}

// deliver hands the frame to the associated, in-coverage station that
// accepts the destination address. Undeliverable frames are either
// returned to the router (once, when configured) or counted as air drops.
// The medium's addr index names the sole station accepting pkt.Dst
// (addresses are single-owner, see Medium.claimAddr), so delivery checks
// one candidate instead of scanning the population; association, radio
// state, and coverage are evaluated on it at the arrival instant exactly
// as the classic scan did.
func (ap *AccessPoint) deliver(pkt *inet.Packet) {
	if s := ap.medium.addrIndex[pkt.Dst]; s != nil &&
		s.ap == ap && s.CanReceive() && ap.Covers(s.Pos(ap.engine.Now())) {
		s.deliverPacket(pkt)
		return
	}
	if ap.cfg.ReturnUndeliverable && !pkt.Requeued && ap.wired != nil {
		pkt.Requeued = true
		ap.wired.Send(pkt)
		return
	}
	ap.dropAir(pkt)
}

// sendUp bridges an uplink frame from a station onto the wired network.
func (ap *AccessPoint) sendUp(pkt *inet.Packet) {
	if ap.wired == nil {
		panic("wireless: access point " + ap.name + " has no wired link")
	}
	ap.wired.Send(pkt)
}
