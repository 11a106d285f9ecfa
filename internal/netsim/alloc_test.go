package netsim

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestUDPHopZeroAlloc pins the packet hot path: in steady state, sending
// one pool-allocated UDP packet across a wired hop — serialization event,
// propagation event, delivery, release, and reclaim — allocates nothing.
func TestUDPHopZeroAlloc(t *testing.T) {
	engine := sim.NewEngine()
	topo := NewTopology(engine)
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	topo.Connect(a, b, LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})

	delivered := 0
	b.Receive = func(pkt *inet.Packet) {
		delivered++
		topo.ReleasePacket(pkt)
	}

	send := func() {
		pkt := topo.AllocPacket()
		pkt.Src = a.Addr()
		pkt.Dst = b.Addr()
		pkt.Proto = inet.ProtoUDP
		pkt.Size = 160
		a.Send(pkt)
		if err := engine.RunAll(); err != nil {
			t.Fatalf("engine: %v", err)
		}
	}
	// Warm the event free list, the packet pool, and the in-flight FIFO.
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("UDP hop allocates %.2f times per packet; want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestUDPHopRecordedZeroAlloc pins the telemetry-instrumented hot path:
// a hop whose send and delivery also feed the statistics recorder (both
// exact and streaming modes) still allocates nothing in steady state.
func TestUDPHopRecordedZeroAlloc(t *testing.T) {
	for _, mode := range []stats.Mode{stats.ModeExact, stats.ModeStreaming} {
		mode := mode
		name := "exact"
		if mode == stats.ModeStreaming {
			name = "streaming"
		}
		t.Run(name, func(t *testing.T) {
			engine := sim.NewEngine()
			topo := NewTopology(engine)
			a := NewHost("a", inet.Addr{Net: 1, Host: 1})
			b := NewHost("b", inet.Addr{Net: 2, Host: 1})
			topo.Connect(a, b, LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})

			rec := stats.NewRecorderMode(mode)
			b.Receive = func(pkt *inet.Packet) {
				rec.Delivered(pkt, engine.Now())
				topo.ReleasePacket(pkt)
			}

			send := func() {
				pkt := topo.AllocPacket()
				pkt.Src = a.Addr()
				pkt.Dst = b.Addr()
				pkt.Proto = inet.ProtoUDP
				pkt.Flow = 1
				pkt.Size = 160
				pkt.Created = engine.Now()
				rec.Sent(pkt)
				a.Send(pkt)
				if err := engine.RunAll(); err != nil {
					t.Fatalf("engine: %v", err)
				}
			}
			// Warm pools, the dense flow table, and (exact mode) the delay
			// sample slice far enough that append growth is amortized out
			// of the measured window.
			for i := 0; i < 4096; i++ {
				send()
			}
			// Exact mode appends a DelaySample per delivery; keep sending
			// until the slice has enough spare capacity that no growth can
			// land inside the measured runs.
			if mode == stats.ModeExact {
				for f := rec.Flow(1); cap(f.Delays)-len(f.Delays) < 256; {
					send()
				}
			}
			if avg := testing.AllocsPerRun(200, send); avg != 0 {
				t.Fatalf("recorded UDP hop allocates %.2f times per packet; want 0", avg)
			}
			if rec.TotalDelivered() == 0 {
				t.Fatal("no packets recorded")
			}
		})
	}
}
