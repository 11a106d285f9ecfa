package wireless

import (
	"fmt"

	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Medium is the registry of radios sharing the simulated air. It exists so
// beacons and frames can find the stations in coverage. Two indexes keep
// the data plane O(1) in the station population (DESIGN.md §13): an
// addr→station map for downlink delivery and a position-bucket index for
// beacon coverage scans.
type Medium struct {
	engine   *sim.Engine
	aps      []*AccessPoint
	stations []*Station

	// addrIndex names the sole station accepting each address. Addresses
	// are single-owner: claimAddr panics if a second station claims a
	// live address, which pins the invariant the index depends on.
	addrIndex map[inet.Addr]*Station

	buckets bucketIndex
}

// NewMedium creates an empty medium.
func NewMedium(engine *sim.Engine) *Medium {
	if engine == nil {
		panic("wireless: NewMedium with nil engine")
	}
	return &Medium{engine: engine, addrIndex: make(map[inet.Addr]*Station)}
}

// Engine returns the simulation engine.
func (m *Medium) Engine() *sim.Engine { return m.engine }

func (m *Medium) addAP(ap *AccessPoint) { m.aps = append(m.aps, ap) }

func (m *Medium) addStation(s *Station) {
	s.id = len(m.stations)
	m.stations = append(m.stations, s)
	m.buckets.add(m, s)
}

// APs returns the registered access points.
func (m *Medium) APs() []*AccessPoint { return m.aps }

func (m *Medium) claimAddr(a inet.Addr, s *Station) {
	if cur, ok := m.addrIndex[a]; ok {
		if cur != s {
			panic(fmt.Sprintf("wireless: address %v claimed by %s while owned by %s", a, s.name, cur.name))
		}
		return
	}
	m.addrIndex[a] = s
}

func (m *Medium) releaseAddr(a inet.Addr, s *Station) {
	if m.addrIndex[a] == s {
		delete(m.addrIndex, a)
	}
}

// StationConfig configures a mobile station's radio.
type StationConfig struct {
	// BandwidthBPS is the uplink line rate.
	BandwidthBPS int64
	// AirDelay is the per-frame uplink latency.
	AirDelay sim.Time
	// L2HandoffDelay is the blackout while the NIC re-associates with a
	// new access point (200 ms in the thesis' simulations). During the
	// blackout the station neither sends nor receives and hears no
	// beacons: "currently available IEEE 802.11 wireless LAN card can
	// only access one access point at a time".
	L2HandoffDelay sim.Time
	// QueueLimit bounds the uplink queue, in packets.
	QueueLimit int
}

// Station is a mobile host's wireless NIC. The mobility-protocol engine
// (internal/core) drives it through Associate/SwitchTo and observes it
// through the On* callbacks. Once a core.MobileHost is bound to a station
// it owns all four callbacks; external observers must use the MobileHost's
// hooks instead of replacing them.
type Station struct {
	name   string
	cfg    StationConfig
	engine *sim.Engine
	medium *Medium
	motion Motion

	// Position-index state, owned by the medium's bucketIndex.
	id      int
	bucket  int
	crosser BoundaryCrosser

	ap        *AccessPoint
	switching bool

	addrs map[inet.Addr]bool

	// fused selects the analytic uplink transmit path; latched at
	// construction from FusedAir.
	fused bool

	// Classic two-event uplink transmit state (SetFusedAir(false)). The
	// in-flight FIFO carries the target AP alongside each frame because a
	// frame stays aimed at the AP it was transmitted toward even if the
	// station detaches before it lands; it is shared with the fused path.
	busy     bool
	queue    fifo[*inet.Packet]
	txPkt    *inet.Packet
	txAP     *AccessPoint
	inflight fifo[airFrame]
	txDoneFn sim.Handler
	airFn    sim.Handler

	// Analytic uplink transmit state plus the NIC-reset repair machinery
	// (see nicReset).
	clock         airClock
	repairPending bool
	flushAt       sim.Time
	flushKey      airTxEntry
	holdQueue     fifo[*inet.Packet]
	flushFn       sim.Handler

	txDrops uint64
	// TxDropHook observes uplink packets the station discards: sends
	// while detached, queue-overflow tail drops, and the NIC-reset queue
	// flush on link-down. It mirrors AccessPoint.AirDropHook so scenarios
	// can account (and recycle) station-side losses too.
	TxDropHook func(pkt *inet.Packet)

	// OnRA is invoked for every router advertisement heard, including
	// beacons from foreign access points while in an overlap area.
	OnRA func(adv Advertisement)
	// OnPacket delivers received network-layer packets.
	OnPacket func(pkt *inet.Packet)
	// OnLinkUp fires when an association completes (including the initial
	// one).
	OnLinkUp func(ap *AccessPoint)
	// OnLinkDown fires when the station detaches (start of the L2
	// blackout).
	OnLinkDown func(ap *AccessPoint)
}

// NewStation creates a station and registers it with the medium. It starts
// detached.
func NewStation(name string, medium *Medium, motion Motion, cfg StationConfig) *Station {
	s := &Station{
		name:   name,
		cfg:    cfg,
		engine: medium.engine,
		medium: medium,
		motion: motion,
		addrs:  make(map[inet.Addr]bool),
		// A zero-bandwidth radio serializes instantly, collapsing the whole
		// classic txDone chain into one instant whose nested scheduling
		// interleave the analytic path cannot reproduce; such radios always
		// take the classic path (see fused.go).
		fused: FusedAir() && cfg.BandwidthBPS > 0,
	}
	s.txDoneFn = s.txDone
	s.airFn = s.airArrive
	s.flushFn = s.flushCheck
	medium.addStation(s)
	return s
}

// airFrame is one uplink frame propagating over the air.
type airFrame struct {
	pkt *inet.Packet
	ap  *AccessPoint
}

// Name returns the station identifier.
func (s *Station) Name() string { return s.name }

// Pos returns the station's position at the given instant.
func (s *Station) Pos(at sim.Time) float64 { return s.motion.Pos(at) }

// AP returns the currently associated access point, or nil.
func (s *Station) AP() *AccessPoint { return s.ap }

// Switching reports whether the station is inside an L2 handoff blackout.
func (s *Station) Switching() bool { return s.switching }

// CanReceive reports whether the radio can accept downlink frames.
func (s *Station) CanReceive() bool { return s.ap != nil && !s.switching }

// TxDrops counts uplink packets lost because the station was detached or
// its queue overflowed.
func (s *Station) TxDrops() uint64 {
	if s.fused {
		s.clock.drain(s.engine)
		s.resolveFlush()
	}
	return s.txDrops
}

// Sent counts uplink frames fully serialized onto the air.
func (s *Station) Sent() uint64 {
	if s.fused {
		s.clock.drain(s.engine)
		s.resolveFlush()
	}
	return s.clock.sent
}

// QueueLen returns the number of uplink packets waiting behind the frame
// being serialized.
func (s *Station) QueueLen() int {
	if s.fused {
		s.clock.drain(s.engine)
		s.resolveFlush()
		if s.repairPending {
			return s.holdQueue.Len()
		}
		if m := s.clock.occupancy(); m > 0 {
			return m - 1
		}
		return 0
	}
	return s.queue.Len()
}

// AddAddr registers an address the station accepts (care-of addresses come
// and go during handovers) and indexes it for O(1) downlink delivery.
func (s *Station) AddAddr(a inet.Addr) {
	s.addrs[a] = true
	s.medium.claimAddr(a, s)
}

// RemoveAddr deregisters an address.
func (s *Station) RemoveAddr(a inet.Addr) {
	delete(s.addrs, a)
	s.medium.releaseAddr(a, s)
}

// HasAddr reports whether the station currently accepts an address.
func (s *Station) HasAddr(a inet.Addr) bool { return s.addrs[a] }

func (s *Station) accepts(a inet.Addr) bool { return s.addrs[a] }

func (s *Station) hearsBeacons() bool { return !s.switching }

// Associate attaches the station to an access point immediately (initial
// attachment; no blackout).
func (s *Station) Associate(ap *AccessPoint) {
	s.ap = ap
	s.switching = false
	if s.OnLinkUp != nil {
		s.OnLinkUp(ap)
	}
}

// SwitchTo starts a link-layer handoff toward the target access point: the
// station detaches now and re-attaches after the configured L2 blackout.
func (s *Station) SwitchTo(target *AccessPoint) {
	old := s.ap
	s.ap = nil
	s.switching = true
	s.nicReset()
	if s.OnLinkDown != nil {
		s.OnLinkDown(old)
	}
	s.engine.Schedule(s.cfg.L2HandoffDelay, func() {
		s.switching = false
		s.ap = target
		if s.OnLinkUp != nil {
			s.OnLinkUp(target)
		}
	})
}

// Detach drops the association without re-attaching.
func (s *Station) Detach() {
	old := s.ap
	s.ap = nil
	s.nicReset()
	if old != nil && s.OnLinkDown != nil {
		s.OnLinkDown(old)
	}
}

func (s *Station) queueLimit() int {
	if s.cfg.QueueLimit == 0 {
		return netsim.DefaultQueueLimit
	}
	return s.cfg.QueueLimit
}

// dropTx discards an uplink packet the radio will never transmit.
func (s *Station) dropTx(pkt *inet.Packet) {
	s.txDrops++
	if s.TxDropHook != nil {
		s.TxDropHook(pkt)
	}
}

// Send transmits a network-layer packet uplink through the associated
// access point. Packets sent while detached are lost (counted in TxDrops
// and observed by TxDropHook): the station's queue is flushed on link-down
// like a real NIC reset.
func (s *Station) Send(pkt *inet.Packet) {
	if !s.CanReceive() {
		s.dropTx(pkt)
		return
	}
	if s.fused {
		s.sendFused(pkt)
		return
	}
	if s.busy {
		if s.queue.Len() >= s.queueLimit() {
			s.dropTx(pkt)
			return
		}
		s.queue.Push(pkt)
		return
	}
	s.startTx(pkt)
}

// sendFused admits a packet on the analytic uplink: one pre-bound delivery
// event at the instant the classic path's airArrive would fire, pinned at
// the same virtual key.
func (s *Station) sendFused(pkt *inet.Packet) {
	s.clock.drain(s.engine)
	s.resolveFlush()
	if s.repairPending {
		// A NIC reset happened while a frame was still serializing and
		// the station has already re-attached; until that frame departs
		// (the instant the classic path decides the flush) new packets
		// wait in the hold queue, which plays the role of the classic
		// queue here.
		if s.holdQueue.Len() >= s.queueLimit() {
			s.dropTx(pkt)
			return
		}
		s.holdQueue.Push(pkt)
		return
	}
	if m := s.clock.occupancy(); m > 0 && m-1 >= s.queueLimit() {
		s.dropTx(pkt)
		return
	}
	start, dep, idx := s.clock.push(s.engine, pkt.Size, s.cfg.BandwidthBPS)
	ent := &s.clock.ring[idx]
	s.inflight.Push(airFrame{pkt: pkt, ap: s.ap})
	ent.ref = s.engine.AtPinned(dep+s.cfg.AirDelay, dep, start, ent.pseq, s.airFn)
}

// nicReset repairs the analytic uplink on link-down. Classic semantics: the
// serializing frame and frames already on the air continue toward the AP
// they were aimed at, while queued frames wait for the serializing frame's
// txDone — if the station has re-attached by then they restart toward the
// new AP, otherwise they are flushed. The analytic path has already
// scheduled deliveries for those queued frames, so it cancels them, parks
// the packets in the hold queue, rewinds busyUntil to the serializing
// frame's departure, and pins a flush-decision event at that frame's
// phantom txDone key.
func (s *Station) nicReset() {
	if !s.fused {
		return
	}
	s.clock.drain(s.engine)
	s.resolveFlush()
	if s.repairPending {
		// An earlier reset's flush decision is still due; the ring holds
		// only the serializing frame, so there is nothing new to repair.
		return
	}
	m := s.clock.occupancy()
	if m <= 1 {
		return // nothing queued behind the serializing frame
	}
	head := s.clock.ringHead
	tail := m - 1
	base := s.inflight.Len() - tail
	for i := 0; i < tail; i++ {
		s.engine.Cancel(s.clock.ring[head+1+i].ref)
		s.holdQueue.Push(s.inflight.At(base + i).pkt)
	}
	s.inflight.DropTail(tail)
	s.clock.ring = s.clock.ring[:head+1]
	cur := &s.clock.ring[head]
	s.clock.busyUntil = cur.dep
	s.repairPending = true
	s.flushAt = cur.dep
	s.flushKey = *cur
	s.engine.AtPinned(cur.dep, cur.pvins, cur.pvins2, cur.pvseq2, s.flushFn)
}

// flushCheck is the pinned flush-decision event scheduled by nicReset; it
// fires at the serializing frame's phantom txDone so held packets restart
// (or flush) even if nothing else touches the station.
func (s *Station) flushCheck() {
	s.clock.drain(s.engine)
	s.resolveFlush()
}

// resolveFlush applies a pending NIC-reset flush decision once the
// serializing frame's phantom txDone has passed, exactly when the classic
// path takes it: if the station can transmit again the held packets
// restart toward the current AP, otherwise they are flushed. It is also
// called lazily from reads so same-instant probes between the phantom
// txDone and the pinned flush event observe the post-decision state.
func (s *Station) resolveFlush() {
	if !s.repairPending {
		return
	}
	now := s.engine.Now()
	if s.flushAt > now || (s.flushAt == now && !phantomFired(s.engine, &s.flushKey)) {
		return
	}
	s.repairPending = false
	n := s.holdQueue.Len()
	if s.CanReceive() {
		for i := 0; i < n; i++ {
			s.sendFused(s.holdQueue.Pop())
		}
		return
	}
	// NIC reset on detach: queued frames are lost.
	for i := 0; i < n; i++ {
		s.dropTx(s.holdQueue.Pop())
	}
}

func (s *Station) startTx(pkt *inet.Packet) {
	s.busy = true
	s.txPkt = pkt
	s.txAP = s.ap // frame is in flight toward this AP even if we detach later
	var txTime sim.Time
	if s.cfg.BandwidthBPS > 0 {
		txTime = sim.Time(int64(pkt.Size) * 8 * int64(sim.Second) / s.cfg.BandwidthBPS)
	}
	s.engine.Schedule(txTime, s.txDoneFn)
}

// txDone fires when the current frame finishes serializing: it goes on the
// air toward the AP it was aimed at and the next queued frame starts.
func (s *Station) txDone() {
	s.clock.sent++
	s.inflight.Push(airFrame{pkt: s.txPkt, ap: s.txAP})
	s.txPkt, s.txAP = nil, nil
	s.engine.Schedule(s.cfg.AirDelay, s.airFn)
	s.busy = false
	switch {
	case s.queue.Len() > 0 && s.CanReceive():
		s.startTx(s.queue.Pop())
	case s.queue.Len() > 0:
		// NIC reset on detach: queued frames are lost.
		n := s.queue.Len()
		for i := 0; i < n; i++ {
			s.dropTx(s.queue.Pop())
		}
	}
}

// airArrive fires one air delay after the frame departs (constant delay
// keeps the FIFO in arrival order). The frame only lands if the station is
// still in the target AP's coverage when it arrives. Both transmit paths
// share this handler: the fused path pre-binds it per frame via AtPinned.
func (s *Station) airArrive() {
	f := s.inflight.Pop()
	if f.ap != nil && f.ap.Covers(s.Pos(s.engine.Now())) {
		f.ap.sendUp(f.pkt)
	}
}

func (s *Station) deliverRA(adv Advertisement) {
	if s.OnRA != nil {
		s.OnRA(adv)
	}
}

func (s *Station) deliverPacket(pkt *inet.Packet) {
	if s.OnPacket != nil {
		s.OnPacket(pkt)
	}
}
