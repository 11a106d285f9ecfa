package scenario

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/mip"
	"repro/internal/netsim"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/wireless"
)

// The city scenario scales the metro cell out to a whole metropolitan
// deployment: tens of AR domains — each a PAR/NAR pair with its own access
// points, air medium, and resident hosts — anchored at a small set of
// region MAPs. The topology is partitioned into shards (one sim.Engine
// each) run in parallel under a conservative epoch-barrier protocol whose
// lookahead is the minimum inter-domain wired delay; all MAP-facing links
// cross shard boundaries through netsim.ShardExchange mailboxes.
//
// Every AR domain is self-contained: its correspondent node, routers,
// access points, hosts, packet pool, and statistics recorder all live on
// the domain's shard, so a shard never touches another shard's state
// mid-epoch. Only the region MAPs are shared, and they are shards of their
// own (or co-resident with domains, balanced by deterministic greedy
// assignment).

// Network numbering of the city topology. Region MAPs manage
// cityMAPNetBase+r; domain d's correspondent node, PAR, and NAR live on
// cityCNNetBase+d, cityDomainNetBase+2d, and cityDomainNetBase+2d+1.
const (
	cityMAPNetBase    inet.NetID = 50
	cityCNNetBase     inet.NetID = 1000
	cityDomainNetBase inet.NetID = 2000
)

// cityCrossDelay is the one-way delay of every inter-domain (MAP-facing)
// link. It is also the shard group's lookahead: the barrier protocol may
// run each shard cityCrossDelay of virtual time per epoch.
const cityCrossDelay = 5 * sim.Millisecond

// DefaultCityShards is the shard count used when CityParams.Shards is
// zero. It is a fixed constant rather than the machine's core count so the
// published tables are byte-identical everywhere; `experiments -shards`
// overrides it.
var DefaultCityShards = 8

// DefaultCityWorkers, when positive, is the worker count used when
// CityParams.Workers is zero (`experiments -workers` sets it). Zero means
// "derive from the machine": GOMAXPROCS for the figure path, a small fixed
// count for runner specs (whose replicas already run concurrently).
var DefaultCityWorkers = 0

// cityWorkers resolves the worker count for a sharded city run — the one
// defaulting path shared by applyDefaults and CitySpec. An explicit request
// wins, then the process-wide default (the -workers flag), then fallback;
// the result is clamped to [1, shards] since more workers than shards can
// never help.
func cityWorkers(requested, shards, fallback int) int {
	w := requested
	if w <= 0 {
		w = DefaultCityWorkers
	}
	if w <= 0 {
		w = fallback
	}
	if w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CityParams configures the sharded city-scale scenario. Zero values
// select the acceptance-scale defaults (50 domains × 2000 hosts).
type CityParams struct {
	// Domains is the number of AR domains (PAR/NAR pairs).
	Domains int
	// HostsPerDomain is how many mobile hosts each domain carries through
	// a staggered PAR→NAR handoff.
	HostsPerDomain int
	// MAPs is the number of region anchors. It is a model parameter,
	// deliberately independent of Shards: a 1-shard and an 8-shard run
	// simulate the identical city.
	MAPs int
	// Shards is the partition size (engines run in parallel). Zero selects
	// DefaultCityShards. Results depend on the shard count (same-instant
	// tie-breaks differ across partitions) but never on Workers.
	Shards int
	// Workers bounds the goroutines running shards. Zero selects
	// DefaultCityWorkers, then GOMAXPROCS. Any worker count produces
	// byte-identical results.
	Workers int
	// FixedEpochs reverts the shard group to fixed-width epochs (the
	// pre-adaptive protocol). Zero value — adaptive — is what everything
	// but differential tests and barrier measurements wants.
	FixedEpochs bool
	// Scheme selects the buffering behaviour on the access routers.
	Scheme core.Scheme
	// PoolSize is each access router's buffer pool in packets.
	PoolSize int
	// BufferRequest is the per-host buffer demand in packets.
	BufferRequest int
	// Alpha is the PAR's best-effort admission threshold.
	Alpha int
	// StaggerWindow overrides the window each domain's handoffs spread
	// over. Zero scales with the host count (metroWindow).
	StaggerWindow sim.Time
	// Seed drives beacon phases (per-domain streams are derived from it).
	Seed int64
	// Engine optionally seeds shard 0 with a reused engine (reset first),
	// so the Monte-Carlo runner keeps a warmed free list per worker.
	Engine *sim.Engine

	// forceSerial, set only by tests, bypasses the shard group and steps
	// the single engine directly — the differential reference proving the
	// one-shard partition is the serial engine.
	forceSerial bool
}

func (p *CityParams) applyDefaults() {
	if p.Domains <= 0 {
		p.Domains = 50
	}
	if p.HostsPerDomain <= 0 {
		p.HostsPerDomain = 2000
	}
	if p.MAPs <= 0 {
		p.MAPs = 2
	}
	if p.MAPs > p.Domains {
		p.MAPs = p.Domains
	}
	if p.Shards <= 0 {
		p.Shards = DefaultCityShards
	}
	p.Workers = cityWorkers(p.Workers, p.Shards, runtime.GOMAXPROCS(0))
	if p.Scheme == 0 {
		p.Scheme = core.SchemeEnhanced
	}
	if p.PoolSize <= 0 {
		p.PoolSize = 240
	}
	if p.BufferRequest <= 0 {
		p.BufferRequest = 12
	}
	if p.Alpha == 0 {
		p.Alpha = 2
	}
	if p.StaggerWindow <= 0 {
		p.StaggerWindow = metroWindow(p.HostsPerDomain)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// cityAssign distributes the region MAPs and the AR domains over shards
// with a deterministic longest-processing-time greedy: heavier units first,
// each to the least-loaded shard, ties to the lowest shard index. The
// assignment is a pure function of (maps, domains, shards) — never of
// worker scheduling — which is half of the determinism contract.
func cityAssign(maps, domains, shards int) (mapShard, domShard []int) {
	type unit struct {
		weight int
		isMAP  bool
		idx    int
	}
	// A MAP serves domains/maps domains but touches only the wired half of
	// each packet's life — measured at about a quarter of a domain's event
	// load per served domain (intercept + tunnel transmit vs. the domain's
	// full CN→AR→air→MH chain).
	mapWeight := domains / (4 * maps)
	if mapWeight < 1 {
		mapWeight = 1
	}
	units := make([]unit, 0, maps+domains)
	for r := 0; r < maps; r++ {
		units = append(units, unit{weight: mapWeight, isMAP: true, idx: r})
	}
	for d := 0; d < domains; d++ {
		units = append(units, unit{weight: 1, idx: d})
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].weight > units[j].weight })

	load := make([]int, shards)
	mapShard = make([]int, maps)
	domShard = make([]int, domains)
	for _, u := range units {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		load[best] += u.weight
		if u.isMAP {
			mapShard[u.idx] = best
		} else {
			domShard[u.idx] = best
		}
	}
	return mapShard, domShard
}

// cityMAP is one region anchor: a MAP agent with its own topology (packet
// pool) and recorder, all owned by its shard.
type cityMAP struct {
	shard    int
	engine   *sim.Engine
	topo     *netsim.Topology
	router   *netsim.Router
	agent    *mip.Agent
	recorder *stats.Recorder
	net      inet.NetID
}

// cityDomain is one AR domain: everything between a correspondent node and
// the air interface, owned by a single shard.
type cityDomain struct {
	shard    int
	engine   *sim.Engine
	topo     *netsim.Topology
	medium   *wireless.Medium
	recorder *stats.Recorder
	anchor   *cityMAP

	cn       *netsim.Host
	par, nar *core.AccessRouter
	apPAR    *wireless.AccessPoint
	apNAR    *wireless.AccessPoint
	parAPL   *netsim.Link
	// wired holds every wired link of the domain, indexed by cityLinkRoles,
	// for the utilization rollup.
	wired [len(cityLinkRoles)]*netsim.Link

	parNet, narNet, cnNet inet.NetID

	hosts []*cityHost
}

// cityLinkRoles names the wired link roles of one AR domain, in render
// order: the three MAP-facing (usually cross-shard) links, the direct
// PAR–NAR link, and the two router–AP links.
var cityLinkRoles = [...]string{"cn-map", "par-map", "nar-map", "par-nar", "par-ap", "nar-ap"}

// cityHost is one mobile host and its audio flow.
type cityHost struct {
	mh   *core.MobileHost
	src  *traffic.CBR
	flow inet.FlowID
}

// city is the assembled partitioned topology.
type city struct {
	params   CityParams
	engines  []*sim.Engine
	exchange *netsim.ShardExchange
	group    *sim.ShardGroup
	maps     []*cityMAP
	domains  []*cityDomain
}

// newCity builds the partitioned topology. Construction is single-threaded
// and ordered (MAPs, then domains, then hosts), so every engine's event
// sequence numbers — and hence the whole run — are a pure function of the
// parameters.
func newCity(p CityParams) *city {
	mapShard, domShard := cityAssign(p.MAPs, p.Domains, p.Shards)

	engines := make([]*sim.Engine, p.Shards)
	for s := range engines {
		if s == 0 && p.Engine != nil {
			p.Engine.Reset()
			engines[s] = p.Engine
			continue
		}
		engines[s] = sim.NewEngine()
	}
	c := &city{params: p, engines: engines, exchange: netsim.NewShardExchange()}

	for r := 0; r < p.MAPs; r++ {
		engine := engines[mapShard[r]]
		topo := netsim.NewTopology(engine)
		net := cityMAPNetBase + inet.NetID(r)
		router := netsim.NewRouter(fmt.Sprintf("map%d", r), inet.Addr{Net: net, Host: 1})
		recorder := stats.NewRecorderMode(stats.ModeStreaming)
		agent := mip.NewAgent(engine, router, mip.AgentConfig{
			ManagedNet: net,
			Alloc:      topo.AllocPacket,
		})
		agent.OnBicast = func(pkt *inet.Packet) { recorder.BicastDuplicate(pkt) }
		hookRelease(topo, router)
		c.maps = append(c.maps, &cityMAP{
			shard: mapShard[r], engine: engine, topo: topo, router: router,
			agent: agent, recorder: recorder, net: net,
		})
	}

	nextRCoA := inet.HostID(0)
	for d := 0; d < p.Domains; d++ {
		dom := c.buildDomain(d, domShard[d], c.maps[d*p.MAPs/p.Domains])
		c.domains = append(c.domains, dom)
		for i := 0; i < p.HostsPerDomain; i++ {
			nextRCoA++
			c.addHost(dom, i, nextRCoA)
		}
	}

	lookahead := c.exchange.Lookahead()
	if lookahead == 0 {
		lookahead = cityCrossDelay // single shard: no cross links exist
	}
	c.group = sim.NewShardGroup(engines, lookahead, p.Workers)
	c.group.SetExchange(c.exchangeAndReturn)
	c.group.SetExchangePending(c.exchange.Pending)
	if p.FixedEpochs {
		c.group.SetAdaptive(false)
	}
	return c
}

// exchangeAndReturn is the shard group's barrier callback: it migrates the
// cross-shard traffic of the last round, then returns every packet that
// died away from its origin pool — a MAP's tunnel wrapper stripped in a
// domain, a domain's packet dropped on a MAP's side of a link — to that
// pool. Every shard is parked at the barrier, so touching both pools is
// race-free, and the order is fixed, so the pools' contents are the same
// at every worker count.
func (c *city) exchangeAndReturn() {
	c.exchange.Flush()
	for _, m := range c.maps {
		m.topo.ReturnParked()
	}
	for _, dom := range c.domains {
		dom.topo.ReturnParked()
	}
}

// buildDomain assembles AR domain d on its shard and wires it to its
// region MAP across the shard boundary.
func (c *city) buildDomain(d, shard int, anchor *cityMAP) *cityDomain {
	p := c.params
	engine := c.engines[shard]
	topo := netsim.NewTopology(engine)
	medium := wireless.NewMedium(engine)
	recorder := stats.NewRecorderMode(stats.ModeStreaming)
	rng := sim.NewRNG(p.Seed + int64(d)*1_000_003)

	parNet := cityDomainNetBase + inet.NetID(2*d)
	narNet := cityDomainNetBase + inet.NetID(2*d+1)
	cnNet := cityCNNetBase + inet.NetID(d)

	cn := netsim.NewHost(fmt.Sprintf("cn%d", d), inet.Addr{Net: cnNet, Host: 1})
	parRouter := netsim.NewRouter(fmt.Sprintf("par%d", d), inet.Addr{Net: parNet, Host: 1})
	narRouter := netsim.NewRouter(fmt.Sprintf("nar%d", d), inet.Addr{Net: narNet, Host: 1})

	arLink := topo.Connect(parRouter, narRouter, netsim.LinkConfig{BandwidthBPS: arBandwidth, Delay: 2 * sim.Millisecond})
	apPAR := wireless.NewAccessPoint(fmt.Sprintf("ap%d-par", d), medium, wireless.APConfig{
		Pos: 0, Radius: APRadius, BandwidthBPS: airBandwidth, AirDelay: sim.Millisecond,
		ReturnUndeliverable: true,
	})
	apNAR := wireless.NewAccessPoint(fmt.Sprintf("ap%d-nar", d), medium, wireless.APConfig{
		Pos: APDistance, Radius: APRadius, BandwidthBPS: airBandwidth, AirDelay: sim.Millisecond,
		ReturnUndeliverable: true,
	})
	parAPLink := topo.Connect(parRouter, apPAR, netsim.LinkConfig{BandwidthBPS: apBandwidth, Delay: sim.Millisecond / 2})
	narAPLink := topo.Connect(narRouter, apNAR, netsim.LinkConfig{BandwidthBPS: apBandwidth, Delay: sim.Millisecond / 2})

	topo.ClaimNet(parNet, parRouter)
	topo.ClaimNet(narNet, narRouter)
	if err := topo.ComputeRoutes(); err != nil {
		panic(fmt.Sprintf("city: domain %d routes: %v", d, err))
	}
	// Handover signalling and redirected packets take the direct PAR–NAR
	// link, exactly as in the reference testbed.
	parRouter.AddPrefixRoute(narNet, arLink.A())
	narRouter.AddPrefixRoute(parNet, arLink.B())

	// Inter-domain wiring: the correspondent node and both access routers
	// face the region MAP over cross-shard mailbox links (plain links when
	// the assignment co-located them — ShardExchange.Connect decides).
	cnMAP := c.exchange.Connect(engine, anchor.engine, cn, anchor.router,
		netsim.LinkConfig{BandwidthBPS: coreBandwidth, Delay: cityCrossDelay})
	parMAP := c.exchange.Connect(engine, anchor.engine, parRouter, anchor.router,
		netsim.LinkConfig{BandwidthBPS: arBandwidth, Delay: cityCrossDelay})
	narMAP := c.exchange.Connect(engine, anchor.engine, narRouter, anchor.router,
		netsim.LinkConfig{BandwidthBPS: arBandwidth, Delay: cityCrossDelay})
	// Domain side: everything non-local goes up to the MAP.
	parRouter.AddPrefixRoute(anchor.net, parMAP.A())
	parRouter.AddPrefixRoute(cnNet, parMAP.A())
	narRouter.AddPrefixRoute(anchor.net, narMAP.A())
	narRouter.AddPrefixRoute(cnNet, narMAP.A())
	// MAP side: per-domain downlink routes.
	anchor.router.AddPrefixRoute(parNet, parMAP.B())
	anchor.router.AddPrefixRoute(narNet, narMAP.B())
	anchor.router.AddPrefixRoute(cnNet, cnMAP.B())

	dir := core.NewDirectory()
	arCfg := core.ARConfig{
		Scheme:   p.Scheme,
		PoolSize: p.PoolSize,
		Alpha:    p.Alpha,
		Alloc:    topo.AllocPacket,
	}
	par := core.NewAccessRouter(engine, parRouter, parNet, dir, arCfg)
	nar := core.NewAccessRouter(engine, narRouter, narNet, dir, arCfg)
	par.AddAP(apPAR.Name(), parAPLink.A())
	nar.AddAP(apNAR.Name(), narAPLink.A())

	for _, ar := range []*core.AccessRouter{par, nar} {
		hookRelease(topo, ar.Router())
		ar.OnDrop = func(pkt *inet.Packet, where string) {
			recorder.Dropped(pkt, where)
			releaseChain(topo, pkt)
		}
		ar.OnBicastDiscard = func(pkt *inet.Packet) {
			recorder.DedupDiscardNAR()
			releaseChain(topo, pkt)
		}
	}
	dataAirDrop := func(pkt *inet.Packet) {
		if pkt.Innermost().Proto != inet.ProtoControl {
			recorder.DroppedSite(pkt, stats.SiteAir)
		}
		releaseChain(topo, pkt)
	}
	apPAR.AirDropHook = dataAirDrop
	apNAR.AirDropHook = dataAirDrop
	topo.HookDrops(func(pkt *inet.Packet) {
		if pkt.Innermost().Proto != inet.ProtoControl {
			recorder.DroppedSite(pkt, stats.SiteLinkQueue)
		}
		releaseChain(topo, pkt)
	})
	// Tail drops on the domain side of the cross links are charged to the
	// domain's recorder (the sending event runs on this shard); the MAP
	// side's belong to the MAP's recorder.
	domainDrop := func(pkt *inet.Packet) {
		if pkt.Innermost().Proto != inet.ProtoControl {
			recorder.DroppedSite(pkt, stats.SiteLinkQueue)
		}
		releaseChain(topo, pkt)
	}
	mapDrop := func(pkt *inet.Packet) {
		if pkt.Innermost().Proto != inet.ProtoControl {
			anchor.recorder.DroppedSite(pkt, stats.SiteLinkQueue)
		}
		releaseChain(anchor.topo, pkt)
	}
	for _, l := range []*netsim.Link{cnMAP, parMAP, narMAP} {
		l.A().DropHook = domainDrop
		l.B().DropHook = mapDrop
	}

	raInterval := 500 * sim.Millisecond
	apPAR.StartAdvertising(wireless.Advertisement{Router: parRouter.Addr(), Net: parNet},
		raInterval, rng.Uniform(0, raInterval))
	apNAR.StartAdvertising(wireless.Advertisement{Router: narRouter.Addr(), Net: narNet},
		raInterval, rng.Uniform(0, raInterval))

	return &cityDomain{
		shard: shard, engine: engine, topo: topo, medium: medium,
		recorder: recorder, anchor: anchor,
		cn: cn, par: par, nar: nar, apPAR: apPAR, apNAR: apNAR,
		parAPL: parAPLink,
		wired:  [...]*netsim.Link{cnMAP, parMAP, narMAP, arLink, parAPLink, narAPLink},
		parNet: parNet, narNet: narNet, cnNet: cnNet,
	}
}

// addHost creates mobile host i of a domain: attached at the PAR, anchored
// at the region MAP under a city-unique RCoA, with one staggered audio
// flow and a Linear walk into the NAR's cell.
func (c *city) addHost(dom *cityDomain, i int, rcoaHost inet.HostID) {
	p := c.params
	window := p.StaggerWindow
	from := window * sim.Time(i) / sim.Time(p.HostsPerDomain)
	rcoa := inet.Addr{Net: dom.anchor.net, Host: 1000 + rcoaHost}

	station := wireless.NewStation(fmt.Sprintf("mh%d-%d", dom.cnNet-cityCNNetBase, i), dom.medium,
		wireless.Linear{Start: 50, Speed: MHSpeed, From: from},
		wireless.StationConfig{
			BandwidthBPS:   airBandwidth,
			AirDelay:       sim.Millisecond,
			L2HandoffDelay: 200 * sim.Millisecond,
		})
	// Station-side uplink losses mirror the APs' AirDropHook accounting.
	station.TxDropHook = func(pkt *inet.Packet) {
		if pkt.Innermost().Proto != inet.ProtoControl {
			dom.recorder.DroppedSite(pkt, stats.SiteAirUplink)
		}
		releaseChain(dom.topo, pkt)
	}
	mh := core.NewMobileHost(dom.engine, station, rcoa, dom.anchor.router.Addr(), core.MHConfig{
		HostID:        inet.HostID(10 + i),
		Scheme:        p.Scheme,
		BufferRequest: p.BufferRequest,
	})
	mh.Attach(dom.apPAR, dom.par.Addr(), dom.parNet)
	dom.par.AttachResident(mh.LCoA(), dom.parAPL.A())
	dom.anchor.agent.Register(rcoa, mh.LCoA(), 3600*sim.Second)
	mh.StartRegistration()

	sink := traffic.Sink(dom.engine, dom.recorder)
	topo := dom.topo
	mh.OnDeliver = func(pkt *inet.Packet) {
		sink(pkt)
		if pkt.Proto == inet.ProtoUDP {
			topo.ReleasePacket(pkt)
		}
	}
	mh.ReleaseTunnel = releaseWrappers(topo)
	recorder := dom.recorder
	mh.OnDuplicate = func(pkt *inet.Packet) {
		recorder.DedupDiscardMH()
		if pkt.Proto == inet.ProtoUDP {
			topo.ReleasePacket(pkt)
		}
	}

	flowID := topo.NewFlowID()
	src := traffic.NewCBR(dom.engine, traffic.CBRConfig{
		Flow:     flowID,
		Class:    inet.Classes[i%3],
		Src:      dom.cn.Addr(),
		Dst:      rcoa,
		Size:     160,
		Interval: 20 * sim.Millisecond,
		Alloc:    topo.AllocPacket,
	}, dom.cn.Send, topo.NewPacketID, recorder)
	src.Start(from + metroTrafficLead)
	dom.engine.Schedule(from+metroTrafficStop, src.Stop)

	dom.hosts = append(dom.hosts, &cityHost{mh: mh, src: src, flow: flowID})
}

// run advances the whole city through the handoff window and the
// post-traffic drain.
func (c *city) run() error {
	p := c.params
	horizon := p.StaggerWindow + 12*sim.Second
	drain := horizon + core.DefaultSessionLifetime + 2*sim.Second
	if p.forceSerial {
		if len(c.engines) != 1 {
			panic("city: forceSerial needs a single shard")
		}
		if err := c.engines[0].Run(horizon); err != nil {
			return err
		}
		c.stopTraffic()
		return c.engines[0].Run(drain)
	}
	if err := c.group.Run(horizon); err != nil {
		return err
	}
	c.stopTraffic()
	return c.group.Run(drain)
}

// stopTraffic stops every source. It runs between group.Run calls, with
// every shard parked at the barrier.
func (c *city) stopTraffic() {
	for _, dom := range c.domains {
		for _, h := range dom.hosts {
			h.src.Stop()
		}
	}
}

// CityDomainRow is one domain's outcome (deterministic for a fixed shard
// count, independent of worker count).
type CityDomainRow struct {
	Domain       int
	Shard        int
	Handoffs     int
	Grants       uint64
	Refusals     uint64
	PeakNAR      int
	PeakPAR      int
	Lost         [3]uint64
	MaxDelayMs   float64
	MeanDelayMs  float64
	SessionsLeft int
}

// CityResult aggregates the city run. Every field except Wall is
// deterministic for a fixed shard count; Render deliberately excludes Wall
// so the rendered output is byte-identical across worker counts.
type CityResult struct {
	Params  CityParams
	Rows    []CityDomainRow
	Shards  int
	Workers int
	// CrossPorts counts mailbox directions (0 when the partition is a
	// single shard: the run is literally the serial engine).
	CrossPorts int
	// Events is the total number of events fired across all shards;
	// ShardEvents breaks it down per shard. Both are deterministic for a
	// fixed shard count, so they are part of the golden output — and the
	// per-shard spread is the partition balance the assignment achieved.
	Events      uint64
	ShardEvents []uint64
	// Links aggregates wired-link utilization per role (both directions of
	// every domain's link with that role summed): packets accepted into the
	// transmit queue, packets handed to the far node, and tail drops.
	// Deterministic for a fixed shard count — and reconstructed lazily from
	// the analytic links' departure rings rather than counted by events, so
	// it renders into the golden output as the observable check on that
	// counter reconstruction.
	Links []CityLinkUse
	// Air aggregates the radio data plane across all domains: downlink
	// frames the APs serialized onto the air and dropped undeliverable,
	// uplink frames the stations serialized and discarded. With the fused
	// air path these are reconstructed lazily from the departure rings
	// rather than counted by txDone events; they are identical in both air
	// modes, so they render into the golden output as the observable check
	// on the fused counter reconstruction.
	AirDownSent  uint64
	AirDownDrops uint64
	AirUpSent    uint64
	AirUpDrops   uint64
	// Barrier holds the shard group's synchronization counters and
	// Flushes/ElidedFlushes the exchange's — all pure functions of the
	// model for a fixed shard count and epoch mode, so they render into
	// the golden output: a regression in barrier efficiency shows up as a
	// golden diff. All zero when the partition is a single shard (the run
	// never enters the round loop).
	Barrier       sim.ShardStats
	Flushes       uint64
	ElidedFlushes uint64
	// Aggregates over all domains.
	Handoffs     int
	Grants       uint64
	Refusals     uint64
	Lost         [3]uint64
	MaxDelayMs   float64
	MeanDelayMs  float64
	SessionsLeft int
	DedupMH      uint64
	DedupNAR     uint64
	DupPackets   uint64
	DupBytes     uint64
	TotalSent    uint64
	// Wall is the host-clock duration of the run — the only
	// nondeterministic field, reported by benchmarks, never by Render.
	Wall time.Duration
}

// CityLinkUse is one wired-link role's aggregate utilization across all
// domains.
type CityLinkUse struct {
	Role      string
	Sent      uint64
	Delivered uint64
	Dropped   uint64
}

// RunCity builds and runs the sharded city scenario.
func RunCity(p CityParams) CityResult {
	p.applyDefaults()
	c := newCity(p)
	start := time.Now()
	if err := c.run(); err != nil {
		panic(fmt.Sprintf("city: %v", err))
	}
	wall := time.Since(start)

	res := CityResult{
		Params:     p,
		Shards:     p.Shards,
		Workers:    p.Workers,
		CrossPorts: c.exchange.Ports(),
		Wall:       wall,
	}
	for _, e := range c.engines {
		res.Events += e.Processed()
		res.ShardEvents = append(res.ShardEvents, e.Processed())
	}
	res.Barrier = c.group.Stats()
	res.Flushes = c.exchange.Flushes()
	res.ElidedFlushes = c.exchange.ElidedFlushes()
	res.Links = make([]CityLinkUse, len(cityLinkRoles))
	for i, role := range cityLinkRoles {
		res.Links[i].Role = role
	}
	for _, dom := range c.domains {
		for i, l := range dom.wired {
			for _, ifc := range [...]*netsim.Iface{l.A(), l.B()} {
				res.Links[i].Sent += ifc.Sent()
				res.Links[i].Delivered += ifc.Delivers()
				res.Links[i].Dropped += ifc.Dropped()
			}
		}
	}
	var meanSum float64
	var meanN int
	for d, dom := range c.domains {
		row := CityDomainRow{
			Domain:       d,
			Shard:        dom.shard,
			Grants:       dom.par.PoolGrants() + dom.nar.PoolGrants(),
			Refusals:     dom.par.PoolRefusals() + dom.nar.PoolRefusals(),
			PeakNAR:      dom.nar.PeakGrantedSessions(),
			PeakPAR:      dom.par.PeakGrantedSessions(),
			SessionsLeft: dom.par.Sessions() + dom.nar.Sessions(),
		}
		res.AirDownSent += dom.apPAR.Sent() + dom.apNAR.Sent()
		res.AirDownDrops += dom.apPAR.AirDrops() + dom.apNAR.AirDrops()
		var rowMeanSum float64
		var rowMeanN int
		for _, h := range dom.hosts {
			st := h.mh.Station()
			res.AirUpSent += st.Sent()
			res.AirUpDrops += st.TxDrops()
			row.Handoffs += len(h.mh.Handoffs())
			f := dom.recorder.Flow(h.flow)
			if f == nil {
				continue
			}
			row.Lost[classIndex(f.Class)] += f.Lost()
			if ms := f.MaxDelay().Milliseconds(); ms > row.MaxDelayMs {
				row.MaxDelayMs = ms
			}
			if f.DelayCount() > 0 {
				rowMeanSum += f.MeanDelay().Milliseconds()
				rowMeanN++
			}
		}
		if rowMeanN > 0 {
			row.MeanDelayMs = rowMeanSum / float64(rowMeanN)
		}
		meanSum += rowMeanSum
		meanN += rowMeanN

		res.Rows = append(res.Rows, row)
		res.Handoffs += row.Handoffs
		res.Grants += row.Grants
		res.Refusals += row.Refusals
		for k := range row.Lost {
			res.Lost[k] += row.Lost[k]
		}
		if row.MaxDelayMs > res.MaxDelayMs {
			res.MaxDelayMs = row.MaxDelayMs
		}
		res.SessionsLeft += row.SessionsLeft
		res.DedupMH += dom.recorder.DedupDiscardsMH()
		res.DedupNAR += dom.recorder.DedupDiscardsNAR()
		res.TotalSent += dom.recorder.TotalSent()
	}
	if meanN > 0 {
		res.MeanDelayMs = meanSum / float64(meanN)
	}
	for _, m := range c.maps {
		res.DupPackets += m.recorder.DupPackets()
		res.DupBytes += m.recorder.DupBytes()
	}
	return res
}

// Render prints the deterministic city summary: configuration, aggregate
// outcome, and a compact per-shard domain map. Wall-clock timing is
// deliberately absent (see CityResult.Wall).
func (r CityResult) Render() string {
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	app("City-scale handoff wave: %d AR domains × %d hosts, %d region MAP(s), %d shard(s)\n",
		r.Params.Domains, r.Params.HostsPerDomain, r.Params.MAPs, r.Shards)
	app("scheme=%v pool=%d/router request=%d window=%v lookahead=%v crossPorts=%d\n\n",
		r.Params.Scheme, r.Params.PoolSize, r.Params.BufferRequest,
		r.Params.StaggerWindow, cityCrossDelay, r.CrossPorts)
	app("%10s%10s%10s%9s%9s%9s%9s%10s%12s%10s\n",
		"handoffs", "grants", "refused", "lostRT", "lostHP", "lostBE",
		"maxdelay", "meandelay", "sessleft", "events")
	app("%10d%10d%10d%9d%9d%9d%8.0fms%8.2fms%12d%10d\n\n",
		r.Handoffs, r.Grants, r.Refusals, r.Lost[0], r.Lost[1], r.Lost[2],
		r.MaxDelayMs, r.MeanDelayMs, r.SessionsLeft, r.Events)
	// Per-shard rollup: how the deterministic assignment spread the load.
	perShard := make(map[int]int)
	for _, row := range r.Rows {
		perShard[row.Shard]++
	}
	app("domains per shard:")
	for s := 0; s < r.Shards; s++ {
		app(" s%d=%d", s, perShard[s])
	}
	app("\nevents per shard: ")
	for s, n := range r.ShardEvents {
		if s > 0 {
			app(" ")
		}
		app("%d", n)
	}
	app("\n")
	// Wired-link utilization per role, both directions of every domain's
	// link summed. Delivered lags sent by whatever was still in flight or
	// queued when the run's horizon fell.
	app("link utilization (all domains, both directions):\n")
	for _, lu := range r.Links {
		app("%10s%12d sent%12d delivered%10d dropped\n",
			lu.Role, lu.Sent, lu.Delivered, lu.Dropped)
	}
	// Radio data plane, all domains summed: identical in both air modes
	// (the fused path reconstructs the counters from its departure rings).
	app("air: downlink %d sent %d dropped, uplink %d sent %d dropped\n",
		r.AirDownSent, r.AirDownDrops, r.AirUpSent, r.AirUpDrops)
	// Barrier efficiency (absent for a single shard, where the run is the
	// serial engine and the counters are all zero by construction).
	if r.Shards > 1 {
		app("barrier: rounds=%d sync=%d solo=%d dispatched=%d elided=%d flushes=%d elidedFlushes=%d\n",
			r.Barrier.Rounds, r.Barrier.BarrierRounds, r.Barrier.SoloRounds,
			r.Barrier.Dispatches, r.Barrier.ElidedDispatches,
			r.Flushes, r.ElidedFlushes)
	}
	return string(b)
}

// WriteCSV emits one row per domain.
func (r CityResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "domain,shard,handoffs,grants,refusals,peak_nar,peak_par,"+
		"lost_rt,lost_hp,lost_be,max_delay_ms,mean_delay_ms,sessions_left"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%g,%d\n",
			row.Domain, row.Shard, row.Handoffs, row.Grants, row.Refusals,
			row.PeakNAR, row.PeakPAR, row.Lost[0], row.Lost[1], row.Lost[2],
			row.MaxDelayMs, row.MeanDelayMs, row.SessionsLeft); err != nil {
			return err
		}
	}
	return nil
}

// CitySpec wraps a reduced city (the full 100k-host sweep is the -fig
// path; replicas need seconds, not minutes) as a seedable runner spec.
func CitySpec(p CityParams) runner.Spec {
	if p.Domains == 0 {
		p.Domains = 8
	}
	if p.HostsPerDomain == 0 {
		p.HostsPerDomain = 100
	}
	if p.Shards == 0 {
		p.Shards = 4
	}
	// Runner replicas already run concurrently, so the per-run shard
	// parallelism defaults low (2) rather than to GOMAXPROCS.
	p.Workers = cityWorkers(p.Workers, p.Shards, 2)
	d := p
	d.applyDefaults()
	return scratchSpec{
		name: "city",
		desc: fmt.Sprintf("sharded city handoff wave: %d domains × %d hosts on %d shards",
			d.Domains, d.HostsPerDomain, d.Shards),
		run: func(engine *sim.Engine, seed int64) runner.Metrics {
			p := p
			p.Seed = seed
			p.Engine = engine
			res := RunCity(p)
			m := runner.Metrics{
				"handoffs":      float64(res.Handoffs),
				"grants":        float64(res.Grants),
				"refusals":      float64(res.Refusals),
				"max_delay_ms":  res.MaxDelayMs,
				"mean_delay_ms": res.MeanDelayMs,
				"sessions_left": float64(res.SessionsLeft),
				"events":        float64(res.Events),
			}
			for k, suffix := range classSuffix {
				m["lost_"+suffix] = float64(res.Lost[k])
			}
			return m
		}}
}

// SetDefaultCityShards overrides the fixed default shard count (the
// experiments command's -shards flag). Zero or negative keeps the default.
func SetDefaultCityShards(n int) {
	if n > 0 {
		DefaultCityShards = n
	}
}

// SetDefaultCityWorkers overrides the default worker count (the experiments
// command's -workers flag). Zero or negative keeps the machine-derived
// default.
func SetDefaultCityWorkers(n int) {
	if n > 0 {
		DefaultCityWorkers = n
	}
}
