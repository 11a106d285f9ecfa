package inet

// PacketPool is a free list of Packet structs. Hot simulation paths churn
// through one packet per application send plus one tunnel wrapper per
// encapsulation; recycling them keeps the steady-state data path
// allocation-free.
//
// A PacketPool is not safe for concurrent use: like the simulation engine
// it belongs to the single event-loop goroutine (each topology owns its
// own pool, so parallel replicas never share one).
//
// Ownership discipline: a packet may be put back only by its single owner
// once no other component can reach it — in this simulator, the final
// deliver/drop sinks. Put zeroes every field, so a recycled packet carries
// nothing into its next life; shared Payload values and cloned Inner
// chains held elsewhere are unaffected (the pool never follows pointers).
type PacketPool struct {
	free []*Packet

	gets, fresh, puts uint64
}

// Get returns a zeroed packet, reusing a recycled one when available.
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
	return &Packet{}
}

// Put recycles a packet. It is idempotent per pool cycle: releasing a
// packet that is already resting in the pool is a no-op, so a double
// release cannot hand the same slot out twice. Put does not follow Inner;
// release each layer of an encapsulation chain explicitly.
func (pl *PacketPool) Put(pkt *Packet) {
	if pkt == nil || pkt.pooled {
		return
	}
	*pkt = Packet{pooled: true}
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
