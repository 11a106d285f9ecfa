package mip4

import (
	"repro/internal/inet"
	"repro/internal/mip"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// HomeAgent is the designated router on the home network. It maintains the
// mobility binding table (home address → care-of address → lifetime; the
// thesis' three-column table) and tunnels intercepted home-network traffic
// to the registered care-of address with IP-in-IP encapsulation.
type HomeAgent struct {
	router *netsim.Router
	engine *sim.Engine
	// HomeNet is the prefix whose away-from-home members it serves.
	homeNet inet.NetID
	// bindings is the mobility binding table.
	bindings *mip.BindingCache
	// maxLifetime caps granted lifetimes (zero: grant as requested).
	maxLifetime sim.Time

	tunnelled uint64
	noBinding uint64
	seq       uint16
}

// NewHomeAgent wraps a router (already linked into the topology) with home
// agent behaviour for the given home prefix.
func NewHomeAgent(engine *sim.Engine, router *netsim.Router, homeNet inet.NetID, maxLifetime sim.Time) *HomeAgent {
	ha := &HomeAgent{
		router:      router,
		engine:      engine,
		homeNet:     homeNet,
		bindings:    mip.NewBindingCache(),
		maxLifetime: maxLifetime,
	}
	router.Intercept = ha.intercept
	router.LocalDeliver = ha.localDeliver
	return ha
}

// Router returns the underlying forwarding element.
func (ha *HomeAgent) Router() *netsim.Router { return ha.router }

// Bindings exposes the mobility binding table.
func (ha *HomeAgent) Bindings() *mip.BindingCache { return ha.bindings }

// Tunnelled counts packets forwarded to care-of addresses.
func (ha *HomeAgent) Tunnelled() uint64 { return ha.tunnelled }

// NoBinding counts home-network packets for unregistered (presumed
// at-home) nodes; they are delivered on the home link instead.
func (ha *HomeAgent) NoBinding() uint64 { return ha.noBinding }

// intercept tunnels packets for registered away-from-home addresses.
func (ha *HomeAgent) intercept(in *netsim.Iface, pkt *inet.Packet) bool {
	if pkt.Dst.Net != ha.homeNet || pkt.Dst == ha.router.Addr() {
		return false
	}
	b, ok := ha.bindings.Lookup(pkt.Dst, ha.engine.Now())
	if !ok {
		ha.noBinding++
		return false // at home: normal delivery on the home link
	}
	ha.tunnelled++
	ha.router.Forward(pkt.Encapsulate(nil, ha.router.Addr(), b.CoA))
	return true
}

// localDeliver handles relayed registration requests.
func (ha *HomeAgent) localDeliver(in *netsim.Iface, pkt *inet.Packet) bool {
	req, ok := pkt.Payload.(*RegistrationRequest)
	if !ok {
		return false
	}
	now := ha.engine.Now()
	reply := &RegistrationReply{Home: req.Home, CoA: req.CoA, ID: req.ID}
	switch {
	case req.Home.Net != ha.homeNet:
		reply.Code = RegistrationDeniedHA
	case req.Deregister():
		ha.bindings.Remove(req.Home)
		reply.Code = RegistrationAccepted
	default:
		granted := req.Lifetime
		if ha.maxLifetime > 0 && granted > ha.maxLifetime {
			granted = ha.maxLifetime
		}
		ha.bindings.Update(req.Home, req.CoA, uint16(req.ID), granted, now)
		reply.Code = RegistrationAccepted
		reply.Lifetime = granted
	}
	// The reply retraces the relay path: back to the foreign agent that
	// sent the request.
	ha.router.Forward(&inet.Packet{
		Src:     ha.router.Addr(),
		Dst:     pkt.Src,
		Proto:   inet.ProtoControl,
		Size:    RegistrationReplySize,
		Created: now,
		Payload: reply,
	})
	return true
}
