package netsim

import (
	"repro/internal/inet"
)

// Router is a generic packet forwarder. Specialized routers (access
// routers, the MAP, the home agent) are built on top of it through the
// Intercept and LocalDeliver hooks rather than by embedding, so that the
// protocol engines stay decoupled from the forwarding plane.
type Router struct {
	name   string
	addr   inet.Addr
	ifaces []*Iface

	prefixRoutes map[inet.NetID]*Iface
	hostRoutes   map[inet.Addr]*Iface

	// Intercept is consulted for every packet before normal forwarding.
	// Returning true means the hook consumed the packet. The fast-handover
	// engines use this to redirect and buffer packets mid-handoff.
	Intercept func(in *Iface, pkt *inet.Packet) bool

	// LocalDeliver handles packets addressed to the router itself (control
	// messages, tunnel endpoints). Tunnel packets terminating here are
	// decapsulated and re-forwarded automatically unless LocalDeliver
	// consumes them first by returning true.
	LocalDeliver func(in *Iface, pkt *inet.Packet) bool

	// ReleaseTunnel, if set, receives each tunnel packet terminating at the
	// router — decapsulated by the router itself, or by a LocalDeliver
	// handler that takes its tunnels over — after the wrapper has been
	// stripped and the inner packet handled (outer != inner). The wrapper
	// is dead at that point; a recycling sink can return it to a packet
	// pool. inner must not be released here.
	ReleaseTunnel func(outer, inner *inet.Packet)

	// NoRouteHook, if set, observes every packet Forward drops for lack of
	// a route. The packet is dead; the observer owns it (pool recycling).
	NoRouteHook func(pkt *inet.Packet)

	noRoute uint64
}

// NewRouter creates a router with the given name and its own address.
func NewRouter(name string, addr inet.Addr) *Router {
	return &Router{
		name:         name,
		addr:         addr,
		prefixRoutes: make(map[inet.NetID]*Iface),
		hostRoutes:   make(map[inet.Addr]*Iface),
	}
}

// Name implements Node.
func (r *Router) Name() string { return r.name }

// Addr returns the router's own address.
func (r *Router) Addr() inet.Addr { return r.addr }

// Ifaces returns the router's interfaces in attachment order.
func (r *Router) Ifaces() []*Iface { return r.ifaces }

// NoRouteDrops returns the number of packets dropped for lack of a route.
func (r *Router) NoRouteDrops() uint64 { return r.noRoute }

// AttachIface implements IfaceAttacher.
func (r *Router) AttachIface(ifc *Iface) { r.ifaces = append(r.ifaces, ifc) }

// AddPrefixRoute installs (or replaces) the next-hop interface for a
// network.
func (r *Router) AddPrefixRoute(n inet.NetID, via *Iface) { r.prefixRoutes[n] = via }

// AddHostRoute installs (or replaces) a host-specific route, which takes
// precedence over prefix routes. Fast handover uses host routes at the NAR
// for the mobile host's previous care-of address.
func (r *Router) AddHostRoute(a inet.Addr, via *Iface) { r.hostRoutes[a] = via }

// RemoveHostRoute deletes a host route.
func (r *Router) RemoveHostRoute(a inet.Addr) { delete(r.hostRoutes, a) }

// Route returns the forwarding interface for dst, or nil if none.
func (r *Router) Route(dst inet.Addr) *Iface {
	if via, ok := r.hostRoutes[dst]; ok {
		return via
	}
	return r.prefixRoutes[dst.Net]
}

// HandlePacket implements Node.
func (r *Router) HandlePacket(in *Iface, pkt *inet.Packet) {
	if r.Intercept != nil && r.Intercept(in, pkt) {
		return
	}
	if pkt.Dst == r.addr {
		if r.LocalDeliver != nil && r.LocalDeliver(in, pkt) {
			return
		}
		// A tunnel terminating here: decapsulate and forward the inner
		// packet as if it had just arrived.
		if inner := pkt.Decapsulate(); inner != nil {
			r.HandlePacket(in, inner)
			if r.ReleaseTunnel != nil {
				r.ReleaseTunnel(pkt, inner)
			}
		}
		return
	}
	r.Forward(pkt)
}

// Forward sends pkt toward its destination using the routing tables,
// counting a drop when no route exists.
func (r *Router) Forward(pkt *inet.Packet) {
	via := r.Route(pkt.Dst)
	if via == nil {
		r.noRoute++
		if r.NoRouteHook != nil {
			r.NoRouteHook(pkt)
		}
		return
	}
	via.Send(pkt)
}
