package tcp

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestTCPRoundTripAllocs pins the pooled TCP packet path: in steady state,
// one data segment and its ACK crossing a wired hop whose hosts draw from
// and release to the topology's pool allocate exactly twice — the two
// *Segment payloads. The packets themselves are recycled.
func TestTCPRoundTripAllocs(t *testing.T) {
	engine := sim.NewEngine()
	topo := netsim.NewTopology(engine)
	a := netsim.NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := netsim.NewHost("b", inet.Addr{Net: 2, Host: 1})
	topo.Connect(a, b, netsim.LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})

	// A one-segment window makes every ACK release exactly one new
	// segment; no goodput series, so nothing else grows with time.
	sender := NewSender(engine, SenderConfig{
		Src: a.Addr(), Dst: b.Addr(), Flow: 1, MaxWindow: 1,
		Alloc: topo.AllocPacket,
	}, a.Send, topo.NewPacketID)
	receiver := NewReceiver(engine, b.Addr(), a.Addr(), 1, b.Send, 0)
	receiver.Alloc = topo.AllocPacket
	a.Receive = func(pkt *inet.Packet) {
		sender.HandleAck(pkt.Payload.(*Segment))
		topo.ReleasePacket(pkt)
	}
	b.Receive = func(pkt *inet.Packet) {
		receiver.Handle(pkt.Payload.(*Segment))
		topo.ReleasePacket(pkt)
	}

	// One round trip: fire events until the next segment is acknowledged.
	roundTrip := func() {
		want := sender.SndUna() + DefaultMSS
		for sender.SndUna() < want {
			if !engine.Step() {
				t.Fatal("engine drained mid-transfer")
			}
		}
	}
	sender.Start()
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 2 {
		t.Fatalf("a TCP round trip allocates %.2f times; want 2 (the two segments)", avg)
	}
	if st := topo.PoolStats(); st.Fresh > 4 {
		t.Fatalf("pool allocated %d fresh packets over %d gets; TCP packets are not recycled", st.Fresh, st.Gets)
	}
	sender.Stop()
}
