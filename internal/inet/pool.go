package inet

// PacketPool is a free list of Packet structs. Hot simulation paths churn
// through one packet per application send plus one tunnel wrapper per
// encapsulation: each tunnel entry (the mobility anchor's intercept, an
// access router's redirect, drain and reverse tunnels) draws its wrapper
// from its own pool through Packet.Encapsulate, and each tunnel exit (the
// mobile host, an access router or router terminating the tunnel) hands
// the dead wrapper back. Every packet Get hands out records the pool as its
// origin, and only its origin takes it back, so a pool holds at most the
// packets it once allocated: its size follows the live traffic, not the
// traffic ever sent.
//
// A PacketPool is not safe for concurrent use: like the simulation engine
// it belongs to the single event-loop goroutine (each topology owns its
// own pool, so parallel replicas never share one). A packet that dies on
// another shard is parked there and put back only while both shards are
// quiescent (netsim.Topology.ReturnParked).
//
// Ownership discipline: a packet may be put back only by its single owner
// once no other component can reach it — in this simulator, the final
// deliver/drop sinks and the tunnel exits. Put zeroes every field, so a
// recycled packet carries nothing into its next life; shared Payload
// values and Inner chains held elsewhere are unaffected (the pool never
// follows pointers).
type PacketPool struct {
	free []*Packet

	gets, fresh, puts uint64
}

// Get returns a zeroed packet whose origin is this pool, reusing a recycled
// one when available.
func (pl *PacketPool) Get() *Packet {
	pl.gets++
	if n := len(pl.free); n > 0 {
		pkt := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pkt.pooled = false
		return pkt
	}
	pl.fresh++
	return &Packet{origin: pl}
}

// Put recycles a packet this pool allocated. It is idempotent per pool
// cycle: releasing a packet that is already resting in the pool is a
// no-op, so a double release cannot hand the same slot out twice. A heap
// packet (no origin) is left to the garbage collector, and a packet from
// another pool panics: the caller must route it to its origin. Put does
// not follow Inner; release each layer of an encapsulation chain
// explicitly.
func (pl *PacketPool) Put(pkt *Packet) {
	if pkt == nil || pkt.pooled || pkt.origin == nil {
		return
	}
	if pkt.origin != pl {
		panic("inet: PacketPool.Put of a packet from another pool")
	}
	*pkt = Packet{pooled: true, origin: pl}
	pl.puts++
	pl.free = append(pl.free, pkt)
}

// Len returns the number of packets resting in the pool.
func (pl *PacketPool) Len() int { return len(pl.free) }

// Counts returns how many packets Get has handed out, how many of those
// were freshly allocated rather than recycled, and how many packets Put
// has taken back (double releases not counted).
func (pl *PacketPool) Counts() (gets, fresh, puts uint64) {
	return pl.gets, pl.fresh, pl.puts
}
