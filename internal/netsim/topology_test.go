package netsim

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
)

// TestReleasedPacketIntactWithinEvent: a sink releases a packet and, in
// the same event, allocates again; an observer chained after the sink
// still reads the released packet intact, because the reclaim waits for
// the releasing event to return.
func TestReleasedPacketIntactWithinEvent(t *testing.T) {
	e := sim.NewEngine()
	topo := NewTopology(e)
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	topo.Connect(a, b, LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})

	// Park a settled packet in the graveyard, so the in-event allocations
	// below do find something to reclaim.
	spare := topo.AllocPacket()
	e.Schedule(0, func() { topo.ReleasePacket(spare) })
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}

	sink := func(pkt *inet.Packet) {
		topo.ReleasePacket(pkt)
		for i := 0; i < 2; i++ {
			if got := topo.AllocPacket(); got == pkt {
				t.Fatalf("AllocPacket %d handed out the packet released in the same event", i)
			}
		}
	}
	delivered := 0
	b.Receive = func(pkt *inet.Packet) {
		sink(pkt)
		delivered++
		// The observer chained after the sink.
		if pkt.ID != 7 || pkt.Size != 100 || pkt.Src != a.Addr() || pkt.Proto != inet.ProtoUDP {
			t.Errorf("observer read a recycled packet: %+v", *pkt)
		}
	}
	pkt := topo.AllocPacket()
	pkt.ID, pkt.Src, pkt.Dst, pkt.Proto, pkt.Size = 7, a.Addr(), b.Addr(), inet.ProtoUDP, 100
	a.Send(pkt)
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d packets, want 1", delivered)
	}
}

// TestReleasedPacketReusedNextEvent: a packet released in event k is
// handed out again by an AllocPacket in event k+1, at the same instant.
func TestReleasedPacketReusedNextEvent(t *testing.T) {
	e := sim.NewEngine()
	topo := NewTopology(e)
	pkt := topo.AllocPacket()
	var got *inet.Packet
	e.Schedule(0, func() { topo.ReleasePacket(pkt) })
	e.Schedule(0, func() { got = topo.AllocPacket() })
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got != pkt {
		t.Fatal("the next event's AllocPacket did not reuse the released packet")
	}
	if st := topo.PoolStats(); st.Gets != 2 || st.Fresh != 1 || st.Puts != 1 || st.Resting != 0 {
		t.Fatalf("PoolStats = %+v, want 2 gets, 1 fresh, 1 put, 0 resting", st)
	}
}

// TestReleasedPacketReusedAfterRun: a packet released inside an event is
// reclaimed by an AllocPacket made after RunAll returns, though no further
// event fired.
func TestReleasedPacketReusedAfterRun(t *testing.T) {
	e := sim.NewEngine()
	topo := NewTopology(e)
	pkt := topo.AllocPacket()
	e.Schedule(sim.Millisecond, func() { topo.ReleasePacket(pkt) })
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got := topo.PoolStats().Resting; got != 1 {
		t.Fatalf("Resting = %d after the release, want 1", got)
	}
	if topo.AllocPacket() != pkt {
		t.Fatal("AllocPacket after RunAll did not reuse the packet released in the last event")
	}
}

// TestReleaseRoutesToOrigin: a packet goes back only to the pool that
// allocated it. Released on another topology it is parked there until
// ReturnParked, which puts it in its origin's pool; a heap packet is never
// adopted by a pool.
func TestReleaseRoutesToOrigin(t *testing.T) {
	home := NewTopology(sim.NewEngine())
	away := NewTopology(sim.NewEngine())

	pkt := home.AllocPacket()
	away.ReleasePacket(pkt)
	away.ReleasePacket(&inet.Packet{Proto: inet.ProtoControl})
	if st := away.PoolStats(); st.Resting != 0 || st.Parked != 1 {
		t.Fatalf("away PoolStats = %+v, want the foreign packet parked and the heap packet ignored", st)
	}
	if st := home.PoolStats(); st.Resting != 0 {
		t.Fatalf("home Resting = %d before the return, want 0", st.Resting)
	}
	away.ReturnParked()
	if st := away.PoolStats(); st.Parked != 0 || st.Resting != 0 {
		t.Fatalf("away PoolStats = %+v after ReturnParked, want nothing parked or resting", st)
	}
	if st := home.PoolStats(); st.Resting != 1 || st.Puts != 1 {
		t.Fatalf("home PoolStats = %+v after ReturnParked, want the packet back in its pool", st)
	}
	if away.AllocPacket() == pkt {
		t.Fatal("the other topology handed out the returned packet")
	}
	if home.AllocPacket() != pkt {
		t.Fatal("the origin topology did not reuse its returned packet")
	}
}

// TestRestingHighWaterMark: RestingHigh is the most packets ever resting at
// once, kept after the pool hands them out again.
func TestRestingHighWaterMark(t *testing.T) {
	e := sim.NewEngine()
	topo := NewTopology(e)
	var live []*inet.Packet
	for i := 0; i < 5; i++ {
		live = append(live, topo.AllocPacket())
	}
	e.Schedule(0, func() {
		for _, pkt := range live {
			topo.ReleasePacket(pkt)
		}
	})
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if st := topo.PoolStats(); st.Resting != 5 || st.RestingHigh != 5 {
		t.Fatalf("PoolStats = %+v after releasing 5, want 5 resting, high 5", st)
	}
	for i := 0; i < 3; i++ {
		topo.AllocPacket()
	}
	if st := topo.PoolStats(); st.Resting != 2 || st.RestingHigh != 5 || st.Fresh != 5 {
		t.Fatalf("PoolStats = %+v after reusing 3, want 2 resting, high 5, 5 fresh", st)
	}
}
