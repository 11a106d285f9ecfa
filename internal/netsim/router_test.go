package netsim

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
)

// lineTopology builds cn -- r1 -- r2 -- dst and returns the pieces.
func lineTopology(t *testing.T) (*sim.Engine, *Topology, *Host, *Router, *Router, *Host) {
	t.Helper()
	e := sim.NewEngine()
	topo := NewTopology(e)
	cn := NewHost("cn", inet.Addr{Net: 1, Host: 1})
	r1 := NewRouter("r1", inet.Addr{Net: 100, Host: 1})
	r2 := NewRouter("r2", inet.Addr{Net: 100, Host: 2})
	dst := NewHost("dst", inet.Addr{Net: 2, Host: 1})
	topo.Connect(cn, r1, LinkConfig{Delay: sim.Millisecond})
	topo.Connect(r1, r2, LinkConfig{Delay: sim.Millisecond})
	topo.Connect(r2, dst, LinkConfig{Delay: sim.Millisecond})
	topo.ClaimNet(1, cn)
	topo.ClaimNet(2, dst)
	if err := topo.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	return e, topo, cn, r1, r2, dst
}

func TestRouterForwardsAlongComputedRoutes(t *testing.T) {
	e, _, cn, _, _, dst := lineTopology(t)
	var got *inet.Packet
	dst.Receive = func(pkt *inet.Packet) { got = pkt }
	cn.Send(newPkt(cn.Addr(), dst.Addr(), 100))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got == nil {
		t.Fatal("packet not delivered across two routers")
	}
	if e.Now() != 3*sim.Millisecond {
		t.Fatalf("delivered at %v, want 3ms", e.Now())
	}
}

func TestRouterReverseDirection(t *testing.T) {
	e, _, cn, _, _, dst := lineTopology(t)
	got := 0
	cn.Receive = func(pkt *inet.Packet) { got++ }
	dst.Send(newPkt(dst.Addr(), cn.Addr(), 100))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got != 1 {
		t.Fatal("reverse-path packet not delivered")
	}
}

func TestRouterNoRouteDrops(t *testing.T) {
	e, _, cn, r1, _, _ := lineTopology(t)
	cn.Send(newPkt(cn.Addr(), inet.Addr{Net: 77, Host: 1}, 100))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if r1.NoRouteDrops() != 1 {
		t.Fatalf("NoRouteDrops = %d, want 1", r1.NoRouteDrops())
	}
}

func TestHostRoutePrecedence(t *testing.T) {
	e, _, cn, r1, _, dst := lineTopology(t)
	// Host route for dst's exact address pointing back toward cn wins over
	// the prefix route toward r2.
	backIface := r1.Ifaces()[0] // r1->cn
	special := inet.Addr{Net: 2, Host: 99}
	r1.AddHostRoute(special, backIface)

	cnGot, dstGot := 0, 0
	cn.Receive = func(pkt *inet.Packet) { cnGot++ }
	dst.Receive = func(pkt *inet.Packet) { dstGot++ }

	// Inject a packet at r1 destined to the special host: it must bounce
	// back toward cn (where it is dropped as foreign), never reach dst.
	p := newPkt(dst.Addr(), special, 100)
	r1.HandlePacket(nil, p)
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if dstGot != 0 {
		t.Fatal("host route did not take precedence over prefix route")
	}
	if cnGot != 0 { // special != cn addr; host silently ignores
		t.Fatal("unexpected delivery at cn")
	}

	r1.RemoveHostRoute(special)
	if r1.Route(special) == backIface {
		t.Fatal("RemoveHostRoute did not remove the route")
	}
}

func TestRouterIntercept(t *testing.T) {
	e, _, cn, r1, _, dst := lineTopology(t)
	intercepted := 0
	r1.Intercept = func(in *Iface, pkt *inet.Packet) bool {
		if pkt.Dst == dst.Addr() {
			intercepted++
			return true
		}
		return false
	}
	delivered := 0
	dst.Receive = func(pkt *inet.Packet) { delivered++ }
	cn.Send(newPkt(cn.Addr(), dst.Addr(), 100))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if intercepted != 1 || delivered != 0 {
		t.Fatalf("intercepted=%d delivered=%d, want 1/0", intercepted, delivered)
	}
}

func TestRouterLocalDeliver(t *testing.T) {
	e, _, cn, r1, _, _ := lineTopology(t)
	var got *inet.Packet
	r1.LocalDeliver = func(in *Iface, pkt *inet.Packet) bool {
		got = pkt
		return true
	}
	cn.Send(newPkt(cn.Addr(), r1.Addr(), 64))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got == nil {
		t.Fatal("packet addressed to router not locally delivered")
	}
}

func TestRouterTunnelEndpointDecapsulatesAndForwards(t *testing.T) {
	e, _, cn, r1, _, dst := lineTopology(t)
	var got *inet.Packet
	dst.Receive = func(pkt *inet.Packet) { got = pkt }

	inner := newPkt(cn.Addr(), dst.Addr(), 100)
	inner.Seq = 5
	// Tunnel from cn to r1; r1 must decapsulate and forward to dst.
	cn.Send(inner.Encapsulate(nil, cn.Addr(), r1.Addr()))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got == nil || got.Seq != 5 {
		t.Fatalf("inner packet not forwarded after decapsulation: %v", got)
	}
}

func TestComputeRoutesPrefersLowDelayPath(t *testing.T) {
	e := sim.NewEngine()
	topo := NewTopology(e)
	// Diamond: src -- a -- dst (fast), src -- b -- dst (slow).
	src := NewRouter("src", inet.Addr{Net: 100, Host: 1})
	a := NewRouter("a", inet.Addr{Net: 100, Host: 2})
	b := NewRouter("b", inet.Addr{Net: 100, Host: 3})
	dst := NewRouter("dst", inet.Addr{Net: 100, Host: 4})

	lsa := topo.Connect(src, a, LinkConfig{Delay: sim.Millisecond})
	topo.Connect(src, b, LinkConfig{Delay: 40 * sim.Millisecond})
	topo.Connect(a, dst, LinkConfig{Delay: sim.Millisecond})
	topo.Connect(b, dst, LinkConfig{Delay: sim.Millisecond})
	topo.ClaimNet(5, dst)
	if err := topo.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	if got := src.Route(inet.Addr{Net: 5, Host: 1}); got != lsa.A() {
		t.Fatalf("route via %v, want via fast path %v", got, lsa.A())
	}
}

func TestComputeRoutesUnreachable(t *testing.T) {
	e := sim.NewEngine()
	topo := NewTopology(e)
	r := NewRouter("r", inet.Addr{Net: 100, Host: 1})
	island := NewHost("island", inet.Addr{Net: 9, Host: 1})
	topo.AddNode(r)
	topo.AddNode(island)
	topo.ClaimNet(9, island)
	if err := topo.ComputeRoutes(); err == nil {
		t.Fatal("ComputeRoutes succeeded with unreachable network owner")
	}
}

func TestTopologyIDGenerators(t *testing.T) {
	topo := NewTopology(sim.NewEngine())
	if a, b := topo.NewPacketID(), topo.NewPacketID(); a == b || a == 0 {
		t.Fatalf("packet IDs not unique: %d %d", a, b)
	}
	if f := topo.NewFlowID(); f != 1 {
		t.Fatalf("first flow ID = %d, want 1", f)
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	topo := NewTopology(sim.NewEngine())
	h := NewHost("h", inet.Addr{Net: 1, Host: 1})
	topo.AddNode(h)
	topo.AddNode(h)
	if len(topo.Nodes()) != 1 {
		t.Fatalf("Nodes() has %d entries, want 1", len(topo.Nodes()))
	}
}

// TestRouterReleasesTerminatedTunnel: a router terminating a tunnel hands
// the stripped wrapper to ReleaseTunnel once the inner packet is on its
// way, and a topology recycling there gets the wrapper back in its pool
// while the inner packet is delivered intact.
func TestRouterReleasesTerminatedTunnel(t *testing.T) {
	e, topo, cn, r1, _, dst := lineTopology(t)
	var outer, inner *inet.Packet
	r1.ReleaseTunnel = func(o, i *inet.Packet) {
		outer, inner = o, i
		topo.ReleasePacket(o)
	}
	var got *inet.Packet
	dst.Receive = func(pkt *inet.Packet) { got = pkt }

	pkt := topo.AllocPacket()
	pkt.Src, pkt.Dst, pkt.Proto, pkt.Size, pkt.Seq = cn.Addr(), dst.Addr(), inet.ProtoUDP, 100, 5
	wrap := pkt.Encapsulate(topo.AllocPacket, cn.Addr(), r1.Addr())
	cn.Send(wrap)
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if outer != wrap || inner != pkt {
		t.Fatalf("ReleaseTunnel got (%p, %p), want the wrapper and its inner packet", outer, inner)
	}
	if got != pkt || got.Seq != 5 {
		t.Fatalf("inner packet not delivered intact: %v", got)
	}
	if st := topo.PoolStats(); st.Resting != 1 {
		t.Fatalf("Resting = %d after the tunnel exit, want 1 (the wrapper)", st.Resting)
	}
}

// TestRouterNoRouteHookOwnsDrop: a packet dropped for lack of a route
// reaches NoRouteHook, so a pooling topology can recycle it.
func TestRouterNoRouteHookOwnsDrop(t *testing.T) {
	e, topo, cn, r1, _, _ := lineTopology(t)
	var dropped *inet.Packet
	r1.NoRouteHook = func(pkt *inet.Packet) {
		dropped = pkt
		topo.ReleasePacket(pkt)
	}
	pkt := topo.AllocPacket()
	pkt.Src, pkt.Dst, pkt.Proto, pkt.Size = cn.Addr(), inet.Addr{Net: 77, Host: 1}, inet.ProtoUDP, 100
	cn.Send(pkt)
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if dropped != pkt || r1.NoRouteDrops() != 1 {
		t.Fatalf("NoRouteHook saw %p (drops %d), want the unroutable packet once", dropped, r1.NoRouteDrops())
	}
	if st := topo.PoolStats(); st.Resting != 1 {
		t.Fatalf("Resting = %d after the drop, want 1", st.Resting)
	}
}
