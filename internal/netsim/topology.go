package netsim

import (
	"fmt"
	"sort"

	"repro/internal/inet"
	"repro/internal/sim"
)

// Topology owns the node and link inventory of a simulation and computes
// static shortest-path routes, playing the role of ns-2's scenario setup.
type Topology struct {
	engine *sim.Engine
	nodes  []Node
	links  []*Link
	owners map[inet.NetID]Node

	nextPktID  uint64
	nextFlowID inet.FlowID

	// Packet recycling: dead packets are parked in the graveyard and only
	// moved to the pool by an AllocPacket made after the releasing event
	// has returned, so observers chained later in that event (tracing
	// hooks, recorders) still read intact fields. No event is scheduled
	// for it: releasedAt is the engine's firing counter at the latest
	// release and releasedFiring whether a handler was running then.
	pool           inet.PacketPool
	graveyard      []*inet.Packet
	releasedAt     uint64
	releasedFiring bool
	// parked holds dead packets another topology's pool allocated (a
	// wrapper that crossed a shard boundary), awaiting ReturnParked.
	parked []*inet.Packet
	// restingHigh is the largest pool-plus-graveyard size seen by an
	// AllocPacket: resting packets only leave through AllocPacket, so
	// sampling there (and in PoolStats) catches every peak.
	restingHigh int
}

// NewTopology creates an empty topology bound to an engine.
func NewTopology(engine *sim.Engine) *Topology {
	if engine == nil {
		panic("netsim: NewTopology with nil engine")
	}
	return &Topology{
		engine: engine,
		owners: make(map[inet.NetID]Node),
	}
}

// AllocPacket returns a zeroed packet from the topology's free list. The
// caller fills in every field it needs; recycled packets carry nothing
// over from their previous life.
func (t *Topology) AllocPacket() *inet.Packet {
	t.restingHigh = max(t.restingHigh, t.resting())
	if len(t.graveyard) > 0 && t.releaseSettled() {
		for i, pkt := range t.graveyard {
			t.pool.Put(pkt)
			t.graveyard[i] = nil
		}
		t.graveyard = t.graveyard[:0]
	}
	return t.pool.Get()
}

// releaseSettled reports whether the event (or call stack) that made the
// latest release has returned: another event has fired since, or the
// release came from inside an event and none is running now.
func (t *Topology) releaseSettled() bool {
	if t.engine.Processed() != t.releasedAt {
		return true
	}
	_, _, _, _, firing := t.engine.FiringKey()
	return t.releasedFiring && !firing
}

// ReleasePacket recycles a dead packet into the pool that allocated it.
// Call it only from a final sink (deliver or drop) or a tunnel exit that
// owns the packet outright. A packet from this topology's pool is
// reclaimed only by an AllocPacket made after the releasing event has
// returned, so hooks running later in the same event still see it intact;
// a packet from another topology's pool is parked until ReturnParked; a
// heap packet is left to the garbage collector. Inner packets are not
// released implicitly — release each layer of a chain explicitly once it
// is dead. Releasing the same packet twice in one cycle is a harmless
// no-op.
func (t *Topology) ReleasePacket(pkt *inet.Packet) {
	if pkt == nil {
		return
	}
	switch pkt.Origin() {
	case nil: // a heap packet: the garbage collector's
	case &t.pool:
		t.graveyard = append(t.graveyard, pkt)
		t.releasedAt = t.engine.Processed()
		_, _, _, _, t.releasedFiring = t.engine.FiringKey()
	default:
		t.parked = append(t.parked, pkt)
	}
}

// ReturnParked puts every packet parked by ReleasePacket back into the
// pool that allocated it. It touches other topologies' pools, so call it
// only while no engine of those topologies is running: between the runs of
// a single engine, or from a shard group's exchange callback, where every
// shard is parked at the barrier.
func (t *Topology) ReturnParked() {
	for i, pkt := range t.parked {
		pkt.Origin().Put(pkt)
		t.parked[i] = nil
	}
	t.parked = t.parked[:0]
}

// resting is the number of packets in the pool plus those released but not
// yet reclaimed.
func (t *Topology) resting() int { return t.pool.Len() + len(t.graveyard) }

// PoolStats counts a topology's packet recycling.
type PoolStats struct {
	// Gets counts AllocPacket calls, Fresh those the pool could not serve
	// from a recycled packet, and Puts the packets moved into the pool.
	Gets, Fresh, Puts uint64
	// Resting is the number of packets in the pool plus those released
	// but not yet reclaimed, and RestingHigh its high-water mark: the most
	// packets the topology ever held idle.
	Resting, RestingHigh int
	// Parked counts dead packets from other topologies' pools awaiting
	// ReturnParked.
	Parked int
}

// PoolStats returns the topology's packet-recycling counters.
func (t *Topology) PoolStats() PoolStats {
	gets, fresh, puts := t.pool.Counts()
	resting := t.resting()
	return PoolStats{
		Gets: gets, Fresh: fresh, Puts: puts,
		Resting: resting, RestingHigh: max(t.restingHigh, resting),
		Parked: len(t.parked),
	}
}

// Engine returns the simulation engine.
func (t *Topology) Engine() *sim.Engine { return t.engine }

// AddNode registers a node. Registration is idempotent.
func (t *Topology) AddNode(n Node) {
	for _, existing := range t.nodes {
		if existing == n {
			return
		}
	}
	t.nodes = append(t.nodes, n)
}

// Nodes returns the registered nodes in insertion order.
func (t *Topology) Nodes() []Node { return t.nodes }

// Connect links two nodes (registering them if needed) and records the link
// for route computation.
func (t *Topology) Connect(a, b Node, cfg LinkConfig) *Link {
	t.AddNode(a)
	t.AddNode(b)
	l := Connect(t.engine, a, b, cfg)
	t.links = append(t.links, l)
	return l
}

// Links returns all links in creation order.
func (t *Topology) Links() []*Link { return t.links }

// HookDrops installs fn as the tail-drop observer on both interfaces of
// every link created so far, chaining after any hook already installed.
// Call it once all links are connected.
func (t *Topology) HookDrops(fn func(pkt *inet.Packet)) {
	for _, l := range t.links {
		for _, ifc := range [...]*Iface{l.A(), l.B()} {
			if prev := ifc.DropHook; prev != nil {
				ifc.DropHook = func(pkt *inet.Packet) { prev(pkt); fn(pkt) }
			} else {
				ifc.DropHook = fn
			}
		}
	}
}

// HookDiscards installs fn as the Impair-discard observer on both
// interfaces of every link created so far, chaining after any hook already
// installed. Discarded packets are consumed by the link (they are never
// delivered or tail-drop-hooked), so a topology that pools packets must
// reclaim them here or leak them. Call it once all links are connected.
func (t *Topology) HookDiscards(fn func(pkt *inet.Packet)) {
	for _, l := range t.links {
		for _, ifc := range [...]*Iface{l.A(), l.B()} {
			if prev := ifc.DiscardHook; prev != nil {
				ifc.DiscardHook = func(pkt *inet.Packet) { prev(pkt); fn(pkt) }
			} else {
				ifc.DiscardHook = fn
			}
		}
	}
}

// ClaimNet declares that the given node terminates a network: shortest-path
// routes for the network's prefix lead to that node.
func (t *Topology) ClaimNet(n inet.NetID, owner Node) {
	t.AddNode(owner)
	t.owners[n] = owner
}

// NewPacketID returns a run-unique packet identifier.
func (t *Topology) NewPacketID() uint64 {
	t.nextPktID++
	return t.nextPktID
}

// NewFlowID returns a run-unique flow identifier (starting at 1).
func (t *Topology) NewFlowID() inet.FlowID {
	t.nextFlowID++
	return t.nextFlowID
}

// ComputeRoutes fills every router's prefix-routing table with the first
// hop of the minimum-delay path to each claimed network's owner. It must be
// called after all links are connected and networks claimed, and may be
// called again after topology changes.
func (t *Topology) ComputeRoutes() error {
	adj := t.adjacency()
	for _, n := range t.nodes {
		r, ok := n.(*Router)
		if !ok {
			continue
		}
		dist, firstHop := t.dijkstra(r, adj)
		for netID, owner := range t.owners {
			if owner == Node(r) {
				continue // locally terminated network; delivery is custom
			}
			hop, ok := firstHop[owner]
			if !ok {
				if _, reachable := dist[owner]; !reachable {
					return fmt.Errorf("netsim: no path from %s to owner of net %d (%s)",
						r.Name(), netID, owner.Name())
				}
				continue
			}
			r.AddPrefixRoute(netID, hop)
		}
	}
	return nil
}

// adjacency maps each node to its link endpoints.
func (t *Topology) adjacency() map[Node][]*Iface {
	adj := make(map[Node][]*Iface, len(t.nodes))
	for _, l := range t.links {
		adj[l.a.node] = append(adj[l.a.node], l.a)
		adj[l.b.node] = append(adj[l.b.node], l.b)
	}
	return adj
}

// dijkstra computes minimum-delay distances from src and the first-hop
// interface (out of src) on the shortest path to every reachable node. Ties
// are broken deterministically by node name.
func (t *Topology) dijkstra(src Node, adj map[Node][]*Iface) (map[Node]sim.Time, map[Node]*Iface) {
	const hopCost = sim.Time(1) // keeps zero-delay links from creating ties
	dist := map[Node]sim.Time{src: 0}
	firstHop := make(map[Node]*Iface)
	visited := make(map[Node]bool)

	for {
		// Select the unvisited node with the smallest distance
		// (deterministic tie-break on name).
		var cur Node
		best := sim.MaxTime
		candidates := make([]Node, 0, len(dist))
		for n := range dist {
			if !visited[n] {
				candidates = append(candidates, n)
			}
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].Name() < candidates[j].Name() })
		for _, n := range candidates {
			if dist[n] < best {
				best = dist[n]
				cur = n
			}
		}
		if cur == nil {
			break
		}
		visited[cur] = true
		for _, ifc := range adj[cur] {
			next := ifc.peer.node
			nd := dist[cur] + ifc.link.cfg.Delay + hopCost
			old, seen := dist[next]
			if !seen || nd < old {
				dist[next] = nd
				if cur == src {
					firstHop[next] = ifc
				} else {
					firstHop[next] = firstHop[cur]
				}
			}
		}
	}
	return dist, firstHop
}
