package mip

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// mapTopology builds cn -- map -- ar -- mh where the MAP manages net 50
// (RCoA space) and the mobile host's LCoA lives on net 2 behind ar.
type mapTopology struct {
	engine *sim.Engine
	cn     *netsim.Host
	agent  *Agent
	ar     *netsim.Router
	mh     *netsim.Host
	rcoa   inet.Addr
}

func newMAPTopology(t *testing.T) *mapTopology {
	t.Helper()
	e := sim.NewEngine()
	topo := netsim.NewTopology(e)
	cn := netsim.NewHost("cn", inet.Addr{Net: 1, Host: 1})
	mapRouter := netsim.NewRouter("map", inet.Addr{Net: 50, Host: 1})
	ar := netsim.NewRouter("ar", inet.Addr{Net: 2, Host: 1})
	mh := netsim.NewHost("mh", inet.Addr{Net: 2, Host: 7})

	topo.Connect(cn, mapRouter, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.Connect(mapRouter, ar, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.Connect(ar, mh, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.ClaimNet(1, cn)
	topo.ClaimNet(2, ar)
	topo.ClaimNet(50, mapRouter)
	if err := topo.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	// AR delivers net-2 addresses over its mh link.
	ar.AddPrefixRoute(2, ar.Ifaces()[1])

	agent := NewAgent(e, mapRouter, AgentConfig{ManagedNet: 50})
	return &mapTopology{
		engine: e, cn: cn, agent: agent, ar: ar, mh: mh,
		rcoa: inet.Addr{Net: 50, Host: 7},
	}
}

func TestAgentTunnelsToBoundCoA(t *testing.T) {
	w := newMAPTopology(t)
	w.agent.Register(w.rcoa, w.mh.Addr(), 100*sim.Second)

	var got *inet.Packet
	w.mh.Receive = func(pkt *inet.Packet) { got = pkt }
	w.cn.Send(&inet.Packet{
		Src: w.cn.Addr(), Dst: w.rcoa, Proto: inet.ProtoUDP, Size: 160, Seq: 3,
	})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got == nil {
		t.Fatal("packet not tunnelled to the care-of address")
	}
	// The host receives the tunnel packet addressed to its LCoA; the
	// inner packet keeps the RCoA destination.
	if got.Proto != inet.ProtoTunnel {
		t.Fatalf("delivered proto = %v, want tunnel", got.Proto)
	}
	if inner := got.Innermost(); inner.Seq != 3 || inner.Dst != w.rcoa {
		t.Fatalf("inner = %v", inner)
	}
	if w.agent.Intercepted() != 1 {
		t.Fatalf("Intercepted = %d, want 1", w.agent.Intercepted())
	}
}

func TestAgentDropsUnboundManagedAddress(t *testing.T) {
	w := newMAPTopology(t)
	delivered := 0
	w.mh.Receive = func(pkt *inet.Packet) { delivered++ }
	w.cn.Send(&inet.Packet{Src: w.cn.Addr(), Dst: w.rcoa, Proto: inet.ProtoUDP, Size: 160})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if delivered != 0 || w.agent.NoBinding() != 1 {
		t.Fatalf("delivered=%d noBinding=%d, want 0/1", delivered, w.agent.NoBinding())
	}
}

func TestAgentIgnoresForeignPrefixes(t *testing.T) {
	w := newMAPTopology(t)
	// Traffic to the AR's net passes through untouched.
	var got *inet.Packet
	w.mh.Receive = func(pkt *inet.Packet) { got = pkt }
	w.cn.Send(&inet.Packet{Src: w.cn.Addr(), Dst: w.mh.Addr(), Proto: inet.ProtoUDP, Size: 160})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got == nil || got.Proto != inet.ProtoUDP {
		t.Fatalf("got = %v, want plain UDP delivery", got)
	}
	if w.agent.Intercepted() != 0 {
		t.Fatal("agent intercepted traffic outside its prefix")
	}
}

func TestAgentHandlesBindingUpdate(t *testing.T) {
	w := newMAPTopology(t)
	var ack *BindingAck
	w.mh.Receive = func(pkt *inet.Packet) {
		if a, ok := pkt.Payload.(*BindingAck); ok {
			ack = a
		}
	}
	w.mh.Send(&inet.Packet{
		Src: w.mh.Addr(), Dst: w.agent.Router().Addr(),
		Proto: inet.ProtoControl, Size: BindingUpdateSize,
		Payload: &BindingUpdate{Key: w.rcoa, CoA: w.mh.Addr(), Lifetime: 30 * sim.Second, Seq: 1},
	})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if ack == nil || !ack.Accepted || ack.Seq != 1 {
		t.Fatalf("ack = %+v, want accepted seq 1", ack)
	}
	if b, ok := w.agent.Cache().Lookup(w.rcoa, w.engine.Now()); !ok || b.CoA != w.mh.Addr() {
		t.Fatalf("binding not installed: %+v/%t", b, ok)
	}
}

func TestAgentGrantsCappedLifetime(t *testing.T) {
	w := newMAPTopology(t)
	w.agent.cfg.MaxLifetime = 10 * sim.Second
	var ack *BindingAck
	w.mh.Receive = func(pkt *inet.Packet) {
		if a, ok := pkt.Payload.(*BindingAck); ok {
			ack = a
		}
	}
	w.mh.Send(&inet.Packet{
		Src: w.mh.Addr(), Dst: w.agent.Router().Addr(),
		Proto: inet.ProtoControl, Size: BindingUpdateSize,
		Payload: &BindingUpdate{Key: w.rcoa, CoA: w.mh.Addr(), Lifetime: sim.Time(3600) * sim.Second, Seq: 1},
	})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if ack == nil || ack.Lifetime != 10*sim.Second {
		t.Fatalf("ack lifetime = %v, want 10s cap", ack.Lifetime)
	}
}

func TestAgentCapsBicastLifetime(t *testing.T) {
	// A bicast request must respect the same MaxLifetime cap as binding
	// grants: a host asking for an hour of duplication against a 10 s cap
	// gets 10 s, not an effectively unbounded entry.
	w := newMAPTopology(t)
	w.agent.cfg.MaxLifetime = 10 * sim.Second
	ncoa := inet.Addr{Net: 3, Host: 7}
	w.mh.Send(&inet.Packet{
		Src: w.mh.Addr(), Dst: w.agent.Router().Addr(),
		Proto: inet.ProtoControl, Size: BicastRequestSize,
		Payload: &BicastRequest{Key: w.rcoa, NCoA: ncoa, Lifetime: 3600 * sim.Second},
	})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !w.agent.BicastActive(w.rcoa) {
		t.Fatal("bicast entry not installed")
	}
	if err := w.engine.Run(w.engine.Now() + 10*sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w.agent.BicastActive(w.rcoa) {
		t.Fatal("bicast entry outlived the MaxLifetime cap")
	}
}

func TestAgentDeregistration(t *testing.T) {
	w := newMAPTopology(t)
	w.agent.Register(w.rcoa, w.mh.Addr(), 100*sim.Second)
	w.mh.Send(&inet.Packet{
		Src: w.mh.Addr(), Dst: w.agent.Router().Addr(),
		Proto: inet.ProtoControl, Size: BindingUpdateSize,
		Payload: &BindingUpdate{Key: w.rcoa, Seq: 2}, // zero lifetime
	})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if _, ok := w.agent.Cache().Lookup(w.rcoa, w.engine.Now()); ok {
		t.Fatal("binding survived deregistration")
	}
}

func TestBindingUpdateDeregister(t *testing.T) {
	if !(&BindingUpdate{}).Deregister() {
		t.Fatal("zero lifetime should deregister")
	}
	if (&BindingUpdate{Lifetime: sim.Second}).Deregister() {
		t.Fatal("non-zero lifetime misread as deregistration")
	}
}

func TestAgentRebindMovesTraffic(t *testing.T) {
	// After a binding update pointing at a second host, traffic follows.
	e := sim.NewEngine()
	topo := netsim.NewTopology(e)
	cn := netsim.NewHost("cn", inet.Addr{Net: 1, Host: 1})
	mapRouter := netsim.NewRouter("map", inet.Addr{Net: 50, Host: 1})
	ar1 := netsim.NewRouter("ar1", inet.Addr{Net: 2, Host: 1})
	ar2 := netsim.NewRouter("ar2", inet.Addr{Net: 3, Host: 1})
	mh1 := netsim.NewHost("mh1", inet.Addr{Net: 2, Host: 7})
	mh2 := netsim.NewHost("mh2", inet.Addr{Net: 3, Host: 7})
	topo.Connect(cn, mapRouter, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.Connect(mapRouter, ar1, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.Connect(mapRouter, ar2, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.Connect(ar1, mh1, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.Connect(ar2, mh2, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.ClaimNet(1, cn)
	topo.ClaimNet(2, ar1)
	topo.ClaimNet(3, ar2)
	topo.ClaimNet(50, mapRouter)
	if err := topo.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	ar1.AddPrefixRoute(2, ar1.Ifaces()[1])
	ar2.AddPrefixRoute(3, ar2.Ifaces()[1])

	agent := NewAgent(e, mapRouter, AgentConfig{ManagedNet: 50})
	rcoa := inet.Addr{Net: 50, Host: 7}
	agent.Register(rcoa, mh1.Addr(), 100*sim.Second)

	got1, got2 := 0, 0
	mh1.Receive = func(pkt *inet.Packet) { got1++ }
	mh2.Receive = func(pkt *inet.Packet) { got2++ }

	send := func() {
		cn.Send(&inet.Packet{Src: cn.Addr(), Dst: rcoa, Proto: inet.ProtoUDP, Size: 160})
	}
	send()
	e.Schedule(sim.Second, func() {
		agent.Cache().Update(rcoa, mh2.Addr(), 1, 100*sim.Second, e.Now())
		send()
	})
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got1 != 1 || got2 != 1 {
		t.Fatalf("got1=%d got2=%d, want 1/1", got1, got2)
	}
}

// TestMAPInterceptZeroAlloc pins the anchor's primary tunnel path: in
// steady state, intercepting one packet for a bound RCoA — pooled tunnel
// wrapper, one wired hop to the care-of address, the host stripping and
// releasing both layers — allocates nothing, and the pool stays at the
// handful of packets live at once.
func TestMAPInterceptZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	topo := netsim.NewTopology(e)
	mapRouter := netsim.NewRouter("map", inet.Addr{Net: 50, Host: 1})
	mh := netsim.NewHost("mh", inet.Addr{Net: 2, Host: 7})
	topo.Connect(mapRouter, mh, netsim.LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})
	topo.ClaimNet(2, mh)
	topo.ClaimNet(50, mapRouter)
	if err := topo.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	agent := NewAgent(e, mapRouter, AgentConfig{ManagedNet: 50, Alloc: topo.AllocPacket})
	rcoa := inet.Addr{Net: 50, Host: 7}
	agent.Register(rcoa, mh.Addr(), 1<<62)
	delivered := 0
	mh.Receive = func(pkt *inet.Packet) {
		inner := pkt.Decapsulate()
		if inner == nil || inner.Dst != rcoa {
			t.Fatalf("host received %v, want a tunnel to %v", pkt, rcoa)
		}
		delivered++
		topo.ReleasePacket(inner)
		topo.ReleasePacket(pkt)
	}
	send := func() {
		pkt := topo.AllocPacket()
		pkt.Src, pkt.Dst = inet.Addr{Net: 1, Host: 1}, rcoa
		pkt.Proto, pkt.Size = inet.ProtoUDP, 160
		mapRouter.HandlePacket(nil, pkt)
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("MAP intercept path allocates %.2f times per packet; want 0", avg)
	}
	if delivered != 64+201 || agent.Intercepted() != uint64(delivered) {
		t.Fatalf("delivered %d, intercepted %d; want %d", delivered, agent.Intercepted(), 64+201)
	}
	if st := topo.PoolStats(); st.Fresh > 4 {
		t.Fatalf("pool allocated %d fresh packets for one packet in flight; want <= 4", st.Fresh)
	}
}
