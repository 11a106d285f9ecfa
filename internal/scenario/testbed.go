// Package scenario builds the thesis' simulation scenarios (the Figure 4.1
// hierarchical topology and the Figure 4.11 single-router WLAN) and runs
// one experiment per figure of Chapter 4.
package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/mip"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/wireless"
)

// Network prefixes of the reference topology.
const (
	NetCN   inet.NetID = 1
	NetPAR  inet.NetID = 2
	NetNAR  inet.NetID = 3
	NetMAP  inet.NetID = 50
	NetHome inet.NetID = 60
)

// Drop location labels used in recorders, extending the core package's.
const (
	DropOnAir = "air"
)

// Params configures the Figure 4.1 testbed. Zero values select the thesis'
// settings.
type Params struct {
	// Scheme selects the buffering behaviour on both access routers.
	Scheme core.Scheme
	// PoolSize is each access router's buffer pool in packets (e.g. 40 for
	// the original fast handover runs, 20 for the proposed scheme).
	PoolSize int
	// Alpha is the PAR's best-effort admission threshold.
	Alpha int
	// BufferRequest is each mobile host's BI size. Zero requests nothing.
	BufferRequest int
	// ARLinkDelay is the PAR–NAR link delay (2 ms in most figures, 50 ms
	// in Figure 4.10).
	ARLinkDelay sim.Time
	// L2HandoffDelay is the blackout (200 ms in the thesis).
	L2HandoffDelay sim.Time
	// RAInterval is the router-advertisement period. The thesis uses 1 s
	// and triggers on the first advertisement heard in the 12 m overlap;
	// this model triggers only once the new AP is strictly closer (a 6 m /
	// 0.6 s window at 10 m/s), so the default period is 500 ms to keep the
	// thesis' guarantee that every handoff is anticipated.
	RAInterval sim.Time
	// DrainInterval optionally paces buffer drains.
	DrainInterval sim.Time
	// PartialGrants enables the precise-allocation extension.
	PartialGrants bool
	// AuthKey enables HMAC authentication of handover messages on both
	// routers and all hosts.
	AuthKey []byte
	// Mobility selects fast handover (default) or the plain Mobile IP
	// baseline for every host.
	Mobility core.Mobility
	// HomeAgentDelay, when positive, adds a home agent this far (one-way)
	// behind the MAP and anchors every host there instead of at the MAP —
	// the classic Mobile IP deployment whose registration latency the
	// hierarchical architecture exists to hide.
	HomeAgentDelay sim.Time
	// HysteresisDB is the signal-strength margin for the handover trigger.
	HysteresisDB float64
	// ControlLossRate, when positive, drops each control-plane packet on
	// the access links (AR–AP both sides and the PAR–NAR link) with this
	// probability, drawn from a seeded per-interface stream, and enables
	// the unacked-retransmission paths on the routers and hosts. Data
	// packets are never injected with loss: the loss axis isolates
	// signaling resilience.
	ControlLossRate float64
	// Seed drives beacon phases and the fault injector.
	Seed int64
	// StatsMode selects how the recorder summarizes delays: ModeExact
	// (default) retains every sample for exact percentiles and delivery
	// traces; ModeStreaming keeps only the running aggregates, so memory
	// is O(flows) instead of O(packets) for metro-scale runs.
	StatsMode stats.Mode
	// Engine, when set, is reused for this testbed instead of creating a
	// fresh one. NewTestbed resets it first, so a worker can run many
	// replicas on one engine and keep its warmed-up event free list and
	// queue capacity. Results are identical either way (Reset rewinds the
	// clock and sequence counter completely).
	Engine *sim.Engine
}

func (p *Params) applyDefaults() {
	if p.Scheme == 0 {
		p.Scheme = core.SchemeEnhanced
	}
	if p.ARLinkDelay == 0 {
		p.ARLinkDelay = 2 * sim.Millisecond
	}
	if p.L2HandoffDelay == 0 {
		p.L2HandoffDelay = 200 * sim.Millisecond
	}
	if p.RAInterval == 0 {
		p.RAInterval = 500 * sim.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Geometry of the reference scenario (Figure 4.1): access routers 212 m
// apart, 112 m coverage radius, 12 m overlap, hosts moving at 10 m/s.
const (
	APDistance = 212.0
	APRadius   = 112.0
	MHSpeed    = 10.0
)

// Link-rate constants of the reference topology.
const (
	coreBandwidth = 100_000_000 // CN–MAP
	arBandwidth   = 10_000_000  // MAP–AR, AR–AR
	apBandwidth   = 100_000_000 // AR–AP
	airBandwidth  = 11_000_000  // 802.11b
)

// FlowSpec describes one CBR flow from the correspondent node to a mobile
// host.
type FlowSpec struct {
	Class    inet.Class
	Size     int
	Interval sim.Time
}

// AudioFlow returns the thesis' canonical 64 kb/s audio flow (160-byte
// packets every 20 ms) with the given class.
func AudioFlow(class inet.Class) FlowSpec {
	return FlowSpec{Class: class, Size: 160, Interval: 20 * sim.Millisecond}
}

// MHUnit bundles one mobile host with its traffic.
type MHUnit struct {
	MH      *core.MobileHost
	Station *wireless.Station
	RCoA    inet.Addr
	Sources []*traffic.CBR
	Flows   []inet.FlowID
}

// Testbed is the assembled Figure 4.1 network.
type Testbed struct {
	Params   Params
	Engine   *sim.Engine
	Topo     *netsim.Topology
	Medium   *wireless.Medium
	Recorder *stats.Recorder
	RNG      *sim.RNG

	CN     *netsim.Host
	MAP    *mip.Agent
	Home   *mip.Agent
	PAR    *core.AccessRouter
	NAR    *core.AccessRouter
	APPAR  *wireless.AccessPoint
	APNAR  *wireless.AccessPoint
	MHs    []*MHUnit
	parAPL *netsim.Link
	narAPL *netsim.Link
	arLink *netsim.Link

	// Faults is the control-plane loss injector, nil unless
	// Params.ControlLossRate is positive.
	Faults *netsim.FaultInjector
}

// NewTestbed assembles the reference topology with no mobile hosts yet.
func NewTestbed(p Params) *Testbed {
	p.applyDefaults()
	engine := p.Engine
	if engine == nil {
		engine = sim.NewEngine()
	} else {
		engine.Reset()
	}
	topo := netsim.NewTopology(engine)
	medium := wireless.NewMedium(engine)
	rng := sim.NewRNG(p.Seed)

	cn := netsim.NewHost("cn", inet.Addr{Net: NetCN, Host: 1})
	mapRouter := netsim.NewRouter("map", inet.Addr{Net: NetMAP, Host: 1})
	parRouter := netsim.NewRouter("par", inet.Addr{Net: NetPAR, Host: 1})
	narRouter := netsim.NewRouter("nar", inet.Addr{Net: NetNAR, Host: 1})

	topo.Connect(cn, mapRouter, netsim.LinkConfig{BandwidthBPS: coreBandwidth, Delay: 2 * sim.Millisecond})
	topo.Connect(mapRouter, parRouter, netsim.LinkConfig{BandwidthBPS: arBandwidth, Delay: 2 * sim.Millisecond})
	topo.Connect(mapRouter, narRouter, netsim.LinkConfig{BandwidthBPS: arBandwidth, Delay: 2 * sim.Millisecond})
	arLink := topo.Connect(parRouter, narRouter, netsim.LinkConfig{BandwidthBPS: arBandwidth, Delay: p.ARLinkDelay})

	apPAR := wireless.NewAccessPoint("ap-par", medium, wireless.APConfig{
		Pos: 0, Radius: APRadius, BandwidthBPS: airBandwidth, AirDelay: sim.Millisecond,
		ReturnUndeliverable: true,
	})
	apNAR := wireless.NewAccessPoint("ap-nar", medium, wireless.APConfig{
		Pos: APDistance, Radius: APRadius, BandwidthBPS: airBandwidth, AirDelay: sim.Millisecond,
		ReturnUndeliverable: true,
	})
	parAPLink := topo.Connect(parRouter, apPAR, netsim.LinkConfig{BandwidthBPS: apBandwidth, Delay: sim.Millisecond / 2})
	narAPLink := topo.Connect(narRouter, apNAR, netsim.LinkConfig{BandwidthBPS: apBandwidth, Delay: sim.Millisecond / 2})

	topo.ClaimNet(NetCN, cn)
	topo.ClaimNet(NetMAP, mapRouter)
	topo.ClaimNet(NetPAR, parRouter)
	topo.ClaimNet(NetNAR, narRouter)
	if err := topo.ComputeRoutes(); err != nil {
		panic(fmt.Sprintf("scenario: route computation failed: %v", err))
	}
	// Inter-AR traffic (handover signalling and redirected packets) is
	// pinned to the direct PAR–NAR link: the thesis varies that link's
	// delay specifically, so it must stay on the path even when slower
	// than the detour through the MAP.
	parRouter.AddPrefixRoute(NetNAR, arLink.A())
	narRouter.AddPrefixRoute(NetPAR, arLink.B())

	agent := mip.NewAgent(engine, mapRouter, mip.AgentConfig{
		ManagedNet: NetMAP,
		Alloc:      topo.AllocPacket,
	})

	var home *mip.Agent
	if p.HomeAgentDelay > 0 {
		haRouter := netsim.NewRouter("ha", inet.Addr{Net: NetHome, Host: 1})
		topo.Connect(mapRouter, haRouter, netsim.LinkConfig{
			BandwidthBPS: coreBandwidth, Delay: p.HomeAgentDelay,
		})
		topo.ClaimNet(NetHome, haRouter)
		if err := topo.ComputeRoutes(); err != nil {
			panic(fmt.Sprintf("scenario: home-agent route computation failed: %v", err))
		}
		// Re-pin the inter-AR route clobbered by the recomputation.
		parRouter.AddPrefixRoute(NetNAR, arLink.A())
		narRouter.AddPrefixRoute(NetPAR, arLink.B())
		home = mip.NewAgent(engine, haRouter, mip.AgentConfig{
			ManagedNet: NetHome,
			Alloc:      topo.AllocPacket,
		})
		hookRelease(topo, haRouter)
	}
	hookRelease(topo, mapRouter)

	dir := core.NewDirectory()
	recorder := stats.NewRecorderMode(p.StatsMode)
	arCfg := core.ARConfig{
		Scheme:            p.Scheme,
		PoolSize:          p.PoolSize,
		Alpha:             p.Alpha,
		DrainInterval:     p.DrainInterval,
		PartialGrants:     p.PartialGrants,
		AuthKey:           p.AuthKey,
		RetransmitUnacked: p.ControlLossRate > 0,
		Alloc:             topo.AllocPacket,
	}
	par := core.NewAccessRouter(engine, parRouter, NetPAR, dir, arCfg)
	nar := core.NewAccessRouter(engine, narRouter, NetNAR, dir, arCfg)
	par.AddAP("ap-par", parAPLink.A())
	nar.AddAP("ap-nar", narAPLink.A())

	// Every dead packet goes back to the topology's pool through
	// releaseChain; the reclaim waits until the releasing event has
	// returned, so hooks chained after it (tracing) still read the packet
	// intact.
	for _, ar := range []*core.AccessRouter{par, nar} {
		hookRelease(topo, ar.Router())
		ar.OnDrop = func(pkt *inet.Packet, where string) {
			recorder.Dropped(pkt, where)
			releaseChain(topo, pkt)
		}
		// SafetyNet: discarded hold-window copies are dedup events, not
		// losses — count them and recycle the chain.
		ar.OnBicastDiscard = func(pkt *inet.Packet) {
			recorder.DedupDiscardNAR()
			releaseChain(topo, pkt)
		}
	}
	// Bandwidth-overhead accounting for the anchor's bicast duplicates.
	agent.OnBicast = func(pkt *inet.Packet) { recorder.BicastDuplicate(pkt) }
	dataAirDrop := func(pkt *inet.Packet) {
		if pkt.Innermost().Proto != inet.ProtoControl {
			recorder.DroppedSite(pkt, stats.SiteAir)
		}
		releaseChain(topo, pkt)
	}
	apPAR.AirDropHook = dataAirDrop
	apNAR.AirDropHook = dataAirDrop

	// Wired tail drops: charge them to the recorder's link-queue site and
	// recycle the packets, which previously leaked to the garbage
	// collector. The reference topology is provisioned so these are rare.
	topo.HookDrops(func(pkt *inet.Packet) {
		if pkt.Innermost().Proto != inet.ProtoControl {
			recorder.DroppedSite(pkt, stats.SiteLinkQueue)
		}
		releaseChain(topo, pkt)
	})
	// Impair discards (the fault injector eating a packet) are final sinks
	// too: recycle them the same way. The injector is control-only, and
	// control packets are never pooled, so today this recycles nothing —
	// it is here so a future data-plane fault config cannot silently leak.
	topo.HookDiscards(func(pkt *inet.Packet) { releaseChain(topo, pkt) })

	// Staggered beacons: the PAR's AP on one phase, the NAR's on another.
	apPAR.StartAdvertising(wireless.Advertisement{Router: parRouter.Addr(), Net: NetPAR},
		p.RAInterval, rng.Uniform(0, p.RAInterval))
	apNAR.StartAdvertising(wireless.Advertisement{Router: narRouter.Addr(), Net: NetNAR},
		p.RAInterval, rng.Uniform(0, p.RAInterval))

	// Control-plane loss on the access links. The attachment order is fixed
	// so the per-interface fault streams are a pure function of the seed.
	var faults *netsim.FaultInjector
	if p.ControlLossRate > 0 {
		faults = netsim.NewFaultInjector(p.Seed)
		lossy := netsim.FaultConfig{LossRate: p.ControlLossRate, ControlOnly: true}
		faults.AttachLink(parAPLink, lossy)
		faults.AttachLink(narAPLink, lossy)
		faults.AttachLink(arLink, lossy)
	}

	return &Testbed{
		Params:   p,
		Engine:   engine,
		Topo:     topo,
		Medium:   medium,
		Recorder: recorder,
		RNG:      rng,
		CN:       cn,
		MAP:      agent,
		Home:     home,
		PAR:      par,
		NAR:      nar,
		APPAR:    apPAR,
		APNAR:    apNAR,
		parAPL:   parAPLink,
		narAPL:   narAPLink,
		arLink:   arLink,
		Faults:   faults,
	}
}

// AddMobileHost creates a mobile host attached to the PAR's access point,
// registered at the MAP, with one CBR flow from the CN per spec. Sources
// are created stopped; call StartTraffic.
func (tb *Testbed) AddMobileHost(motion wireless.Motion, flows []FlowSpec) *MHUnit {
	idx := len(tb.MHs)
	hostID := inet.HostID(10 + idx)
	anchor := tb.MAP
	rcoa := inet.Addr{Net: NetMAP, Host: 1000 + inet.HostID(idx)}
	if tb.Home != nil {
		// Classic deployment: the stable address is the home address and
		// the anchor is the distant home agent.
		anchor = tb.Home
		rcoa = inet.Addr{Net: NetHome, Host: 1000 + inet.HostID(idx)}
	}

	station := wireless.NewStation(fmt.Sprintf("mh%d", idx), tb.Medium, motion, wireless.StationConfig{
		BandwidthBPS:   airBandwidth,
		AirDelay:       sim.Millisecond,
		L2HandoffDelay: tb.Params.L2HandoffDelay,
	})
	// Station-side uplink losses (detached sends, queue overflow, NIC-reset
	// flush) mirror the AP's AirDropHook accounting.
	station.TxDropHook = func(pkt *inet.Packet) {
		if pkt.Innermost().Proto != inet.ProtoControl {
			tb.Recorder.DroppedSite(pkt, stats.SiteAirUplink)
		}
		releaseChain(tb.Topo, pkt)
	}
	mh := core.NewMobileHost(tb.Engine, station, rcoa, anchor.Router().Addr(), core.MHConfig{
		HostID:            hostID,
		Scheme:            tb.Params.Scheme,
		BufferRequest:     tb.Params.BufferRequest,
		AuthKey:           tb.Params.AuthKey,
		Mobility:          tb.Params.Mobility,
		HysteresisDB:      tb.Params.HysteresisDB,
		RetransmitUnacked: tb.Params.ControlLossRate > 0,
	})
	mh.Attach(tb.APPAR, tb.PAR.Addr(), NetPAR)
	tb.PAR.AttachResident(mh.LCoA(), tb.parAPL.A())
	anchor.Register(rcoa, mh.LCoA(), 3600*sim.Second)
	mh.StartRegistration()
	sink := traffic.Sink(tb.Engine, tb.Recorder)
	mh.OnDeliver = func(pkt *inet.Packet) {
		sink(pkt)
		// The delivered UDP packet is dead once recorded; recycle it
		// (reclaimed after this event, so tracing wrappers still read it).
		if pkt.Proto == inet.ProtoUDP {
			tb.Topo.ReleasePacket(pkt)
		}
	}
	mh.ReleaseTunnel = releaseWrappers(tb.Topo)
	mh.OnDuplicate = func(pkt *inet.Packet) {
		// Redundant bicast copy suppressed by the dedup window (wrappers
		// already recycled via ReleaseTunnel).
		tb.Recorder.DedupDiscardMH()
		if pkt.Proto == inet.ProtoUDP {
			tb.Topo.ReleasePacket(pkt)
		}
	}

	unit := &MHUnit{MH: mh, Station: station, RCoA: rcoa}
	for _, spec := range flows {
		flowID := tb.Topo.NewFlowID()
		src := traffic.NewCBR(tb.Engine, traffic.CBRConfig{
			Flow:     flowID,
			Class:    spec.Class,
			Src:      tb.CN.Addr(),
			Dst:      rcoa,
			Size:     spec.Size,
			Interval: spec.Interval,
			Alloc:    tb.Topo.AllocPacket,
		}, tb.CN.Send, tb.Topo.NewPacketID, tb.Recorder)
		unit.Sources = append(unit.Sources, src)
		unit.Flows = append(unit.Flows, flowID)
	}
	tb.MHs = append(tb.MHs, unit)
	return unit
}

// StartTraffic starts every CBR source with a small deterministic phase
// stagger so packets from different flows do not collide on the same
// instant.
func (tb *Testbed) StartTraffic() {
	i := 0
	for _, unit := range tb.MHs {
		for _, src := range unit.Sources {
			src.Start(sim.Time(i) * 100 * sim.Microsecond)
			i++
		}
	}
}

// StopTraffic stops every source.
func (tb *Testbed) StopTraffic() {
	for _, unit := range tb.MHs {
		for _, src := range unit.Sources {
			src.Stop()
		}
	}
}

// Run advances the simulation to the given instant.
func (tb *Testbed) Run(until sim.Time) error { return tb.Engine.Run(until) }

// releaseChain recycles a dead packet chain into the pools it came from:
// every tunnel wrapper, and the innermost packet when it is UDP data.
// Control packets are heap-allocated and never pooled, and TCP packets
// dropped on the way stay with the garbage collector (the WLAN testbed
// recycles its TCP packets at its own sinks). topo is the topology the
// packet died on; a packet another topology allocated is parked there
// until the run returns it (netsim.Topology.ReturnParked).
func releaseChain(topo *netsim.Topology, pkt *inet.Packet) {
	for p := pkt; p != nil; p = p.Inner {
		if p.Proto == inet.ProtoTunnel || p.Proto == inet.ProtoUDP {
			topo.ReleasePacket(p)
		}
	}
}

// releaseWrappers returns a tunnel-exit hook (core.MobileHost and
// netsim.Router ReleaseTunnel) that recycles the stripped wrappers into
// topo; the inner packet lives on.
func releaseWrappers(topo *netsim.Topology) func(outer, inner *inet.Packet) {
	return func(outer, inner *inet.Packet) {
		for p := outer; p != nil && p != inner; p = p.Inner {
			topo.ReleasePacket(p)
		}
	}
}

// hookRelease makes a router recycle into topo the tunnel wrappers that
// die at it (its own decapsulation, or an access router's) and the packets
// it drops for lack of a route.
func hookRelease(topo *netsim.Topology, r *netsim.Router) {
	r.ReleaseTunnel = releaseWrappers(topo)
	r.NoRouteHook = func(pkt *inet.Packet) { releaseChain(topo, pkt) }
}
