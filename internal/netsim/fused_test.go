package netsim

import (
	"fmt"
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
)

// arrival is one delivery observed at a receiver: when, which packet, in
// what order (the slice index).
type arrival struct {
	at sim.Time
	id uint64
}

// TestFusedMatchesClassicDifferential is the seeded differential property
// test for the analytic transmit path: random bandwidth/delay/queue-limit/
// byte-limit configurations, with or without an ID-keyed Impair discard
// pattern, carry identical random burst patterns through an Iface and the
// two-event reference model (classicRef) on one engine, and every
// observable — delivery times and order, drop and discard decisions, and
// the Sent/Dropped/QueueLen/QueueBytes counters read at random mid-run
// instants — must match exactly. When the delay allows a cross-shard link,
// the same traffic also crosses a link between the two shards of a
// sim.ShardGroup, which must deliver at the reference's instants, in the
// same order. Runs under -race in CI.
func TestFusedMatchesClassicDifferential(t *testing.T) {
	bands := []int64{0, 125_000, 1_000_000, 3_000_000, 9_600_000, 1_000_000_000}
	delays := []sim.Time{0, sim.Millisecond, 3 * sim.Millisecond, 7 * sim.Millisecond}
	qlims := []int{0, 1, 2, 5, 20}
	blims := []int{0, 500, 2000, 5000}

	for trial := 0; trial < 60; trial++ {
		rng := sim.NewRNG(int64(trial)*7919 + 1)
		cfg := LinkConfig{
			BandwidthBPS:    bands[rng.Intn(len(bands))],
			Delay:           delays[rng.Intn(len(delays))],
			QueueLimit:      qlims[rng.Intn(len(qlims))],
			QueueLimitBytes: blims[rng.Intn(len(blims))],
		}
		// Impair column: half the trials discard every k-th packet ID on
		// all sides, before the link sees it.
		var impair func(pkt *inet.Packet) bool
		if k := uint64(rng.Intn(8)); k >= 2 && k <= 5 {
			impair = func(pkt *inet.Packet) bool { return pkt.ID%k == 0 }
		}

		// Random bursts: the same (id, size) sequence enters every link in
		// the same event, so any divergence is the link's doing.
		type burst struct {
			at    sim.Time
			ids   []uint64
			sizes []int
		}
		var bursts []burst
		var nextID uint64
		for k, n := 0, 4+rng.Intn(16); k < n; k++ {
			b := burst{at: sim.Time(rng.Intn(40)) * sim.Millisecond}
			for j, m := 0, 1+rng.Intn(6); j < m; j++ {
				nextID++
				b.ids = append(b.ids, nextID)
				b.sizes = append(b.sizes, 40+rng.Intn(1461))
			}
			bursts = append(bursts, b)
		}
		// side is one link under test and what it observed.
		type side struct {
			arr          []arrival
			drops, discs []uint64
		}
		// wire installs the observers on a sending Iface and its receiver.
		wire := func(s *side, e *sim.Engine, ifc *Iface, rcv *Host) {
			rcv.Receive = func(pkt *inet.Packet) { s.arr = append(s.arr, arrival{e.Now(), pkt.ID}) }
			ifc.DropHook = func(pkt *inet.Packet) { s.drops = append(s.drops, pkt.ID) }
			ifc.Impair = impair
			ifc.DiscardHook = func(pkt *inet.Packet) { s.discs = append(s.discs, pkt.ID) }
		}

		e := sim.NewEngine()
		var ref, fused side
		rl := newClassicRef(e, cfg, func(pkt *inet.Packet) { ref.arr = append(ref.arr, arrival{e.Now(), pkt.ID}) })
		rl.DropHook = func(pkt *inet.Packet) { ref.drops = append(ref.drops, pkt.ID) }
		rl.Impair = impair
		rl.DiscardHook = func(pkt *inet.Packet) { ref.discs = append(ref.discs, pkt.ID) }
		c := NewHost("c", inet.Addr{Net: 3, Host: 1})
		d := NewHost("d", inet.Addr{Net: 4, Host: 1})
		lf := Connect(e, c, d, cfg)
		wire(&fused, e, lf.A(), d)
		for _, b := range bursts {
			e.At(b.at, func() {
				for j, id := range b.ids {
					pr := newPkt(c.Addr(), d.Addr(), b.sizes[j])
					pr.ID = id
					pf := newPkt(c.Addr(), d.Addr(), b.sizes[j])
					pf.ID = id
					rl.Send(pr)
					c.Send(pf)
				}
			})
		}
		// Random mid-run readers: the lazily drained ring must reconstruct
		// the reference counters at every instant, not just at the end.
		for k := 0; k < 8; k++ {
			at := sim.Time(rng.Intn(45)) * sim.Millisecond
			e.At(at, func() {
				ifd := lf.A()
				if rl.Sent() != ifd.Sent() || rl.Dropped() != ifd.Dropped() ||
					rl.QueueLen() != ifd.QueueLen() || rl.QueueBytes() != ifd.QueueBytes() {
					t.Errorf("trial %d cfg %+v at %v: reference sent=%d dropped=%d qlen=%d qbytes=%d, fused sent=%d dropped=%d qlen=%d qbytes=%d",
						trial, cfg, e.Now(),
						rl.Sent(), rl.Dropped(), rl.QueueLen(), rl.QueueBytes(),
						ifd.Sent(), ifd.Dropped(), ifd.QueueLen(), ifd.QueueBytes())
				}
			})
		}
		if err := e.RunAll(); err != nil {
			t.Fatalf("trial %d: RunAll: %v", trial, err)
		}
		check := func(what string, got side, l *Link) {
			t.Helper()
			sameSeq(t, fmt.Sprintf("trial %d cfg %+v: %s deliveries", trial, cfg, what), ref.arr, got.arr)
			sameSeq(t, fmt.Sprintf("trial %d cfg %+v: %s drops", trial, cfg, what), ref.drops, got.drops)
			sameSeq(t, fmt.Sprintf("trial %d cfg %+v: %s discards", trial, cfg, what), ref.discs, got.discs)
			if ifc := l.A(); rl.Sent() != ifc.Sent() || rl.Dropped() != ifc.Dropped() ||
				uint64(len(ref.arr)) != l.B().Delivers() ||
				rl.QueueLen() != ifc.QueueLen() || rl.QueueBytes() != ifc.QueueBytes() {
				t.Fatalf("trial %d cfg %+v: %s final counters diverge: reference sent=%d dropped=%d delivers=%d, got sent=%d dropped=%d delivers=%d",
					trial, cfg, what, rl.Sent(), rl.Dropped(), len(ref.arr),
					ifc.Sent(), ifc.Dropped(), l.B().Delivers())
			}
		}
		check("fused", fused, lf)
		if impair != nil && len(ref.discs) == 0 {
			t.Fatalf("trial %d: impaired run discarded nothing", trial)
		}

		// Cross-shard column: a cross-shard link needs a positive delay.
		if cfg.Delay == 0 {
			continue
		}
		e0, e1 := sim.NewEngine(), sim.NewEngine()
		x := NewShardExchange()
		g := NewHost("g", inet.Addr{Net: 5, Host: 1})
		h := NewHost("h", inet.Addr{Net: 6, Host: 1})
		lx := x.Connect(e0, e1, g, h, cfg)
		var cross side
		wire(&cross, e1, lx.A(), h)
		for _, b := range bursts {
			e0.At(b.at, func() {
				for j, id := range b.ids {
					p := newPkt(g.Addr(), h.Addr(), b.sizes[j])
					p.ID = id
					g.Send(p)
				}
			})
		}
		grp := sim.NewShardGroup([]*sim.Engine{e0, e1}, x.Lookahead(), 2)
		grp.SetExchange(x.Flush)
		if err := grp.RunAll(); err != nil {
			t.Fatalf("trial %d: sharded RunAll: %v", trial, err)
		}
		check("cross-shard", cross, lx)
	}
}

// sameSeq fails the test unless got equals want element by element.
func sameSeq[T comparable](t *testing.T, what string, want, got []T) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: reference has %d, got %d", what, len(want), len(got))
	}
	for j := range want {
		if want[j] != got[j] {
			t.Fatalf("%s: #%d: reference %+v, got %+v", what, j, want[j], got[j])
		}
	}
}

// TestFusedHalvesWiredHopEvents pins the event economy: the same burst
// costs exactly one scheduler event per packet over an Iface — with or
// without an Impair hook — where the two-event reference costs two
// (txDone + deliver).
func TestFusedHalvesWiredHopEvents(t *testing.T) {
	const n = 100
	cfg := LinkConfig{BandwidthBPS: 10_000_000, Delay: sim.Millisecond}
	run := func(wire func(e *sim.Engine) func(*inet.Packet)) uint64 {
		e := sim.NewEngine()
		send := wire(e)
		e.At(0, func() {
			for i := 0; i < n; i++ {
				send(newPkt(inet.Addr{Net: 1, Host: 1}, inet.Addr{Net: 2, Host: 1}, 1000))
			}
		})
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		return e.Processed()
	}
	iface := func(impair func(*inet.Packet) bool) func(e *sim.Engine) func(*inet.Packet) {
		return func(e *sim.Engine) func(*inet.Packet) {
			a := NewHost("a", inet.Addr{Net: 1, Host: 1})
			b := NewHost("b", inet.Addr{Net: 2, Host: 1})
			Connect(e, a, b, cfg).A().Impair = impair
			b.Receive = func(pkt *inet.Packet) {}
			return a.Send
		}
	}
	reference := run(func(e *sim.Engine) func(*inet.Packet) {
		return newClassicRef(e, cfg, func(pkt *inet.Packet) {}).Send
	})
	fused := run(iface(nil))
	impaired := run(iface(func(pkt *inet.Packet) bool { return false })) // present but transparent
	// 1 burst event + 2 events/packet reference, 1 event/packet fused.
	if reference != 1+2*n || fused != 1+n || impaired != 1+n {
		t.Fatalf("events: reference=%d (want %d), fused=%d (want %d), impaired=%d (want %d)",
			reference, 1+2*n, fused, 1+n, impaired, 1+n)
	}
}

// BenchmarkWiredHopFused measures one pool-allocated UDP packet crossing a
// wired hop end to end — send, serialization, propagation, delivery,
// release, reclaim. The CI gate pins it at 0 allocs/op exactly.
func BenchmarkWiredHopFused(b *testing.B) {
	engine := sim.NewEngine()
	topo := NewTopology(engine)
	src := NewHost("a", inet.Addr{Net: 1, Host: 1})
	dst := NewHost("b", inet.Addr{Net: 2, Host: 1})
	topo.Connect(src, dst, LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})
	dst.Receive = func(pkt *inet.Packet) { topo.ReleasePacket(pkt) }
	send := func() {
		pkt := topo.AllocPacket()
		pkt.Src = src.Addr()
		pkt.Dst = dst.Addr()
		pkt.Proto = inet.ProtoUDP
		pkt.Size = 160
		src.Send(pkt)
		if err := engine.RunAll(); err != nil {
			b.Fatalf("engine: %v", err)
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// TestImpairDiscardReleasesToPool pins the fix for the pooled-packet leak on
// the Impair discard path: a discarded packet reaches the DiscardHook, and a
// topology that recycles there gets every packet back in its pool.
func TestImpairDiscardReleasesToPool(t *testing.T) {
	e := sim.NewEngine()
	topo := NewTopology(e)
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	l := topo.Connect(a, b, LinkConfig{Delay: sim.Millisecond})
	l.A().Impair = func(pkt *inet.Packet) bool { return pkt.ID%2 == 1 } // discard odd IDs
	var discards int
	topo.HookDiscards(func(pkt *inet.Packet) {
		discards++
		topo.ReleasePacket(pkt)
	})
	b.Receive = func(pkt *inet.Packet) { topo.ReleasePacket(pkt) }

	const n = 50
	for i := 0; i < n; i++ {
		pkt := topo.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Proto, pkt.Size = a.Addr(), b.Addr(), inet.ProtoUDP, 100
		pkt.ID = topo.NewPacketID()
		a.Send(pkt)
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if discards != n/2 {
		t.Fatalf("DiscardHook saw %d packets, want %d", discards, n/2)
	}
	// Every packet — delivered or discarded — must be back at rest: in the
	// pool, or released and awaiting the next AllocPacket's reclaim.
	if got := topo.PoolStats().Resting; got != n {
		t.Fatalf("pool recovered %d of %d packets; the discard path leaks", got, n)
	}
}

// TestFusedFallsBackUnderImpair pins that an Impair hook no longer changes
// the transmit path's behaviour: a link whose hook is present but
// transparent delivers the same packets at the same instants as the
// two-event reference, and counts them as sent.
func TestFusedFallsBackUnderImpair(t *testing.T) {
	e := sim.NewEngine()
	cfg := LinkConfig{BandwidthBPS: 1_000_000, Delay: sim.Millisecond}
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	l := Connect(e, a, b, cfg)
	l.A().Impair = func(pkt *inet.Packet) bool { return false } // present but transparent
	var ref, got []arrival
	b.Receive = func(pkt *inet.Packet) { got = append(got, arrival{e.Now(), pkt.ID}) }
	rl := newClassicRef(e, cfg, func(pkt *inet.Packet) { ref = append(ref, arrival{e.Now(), pkt.ID}) })
	for i := 0; i < 3; i++ {
		pr := newPkt(a.Addr(), b.Addr(), 500)
		pr.ID = uint64(i + 1)
		pf := newPkt(a.Addr(), b.Addr(), 500)
		pf.ID = uint64(i + 1)
		rl.Send(pr)
		a.Send(pf)
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	sameSeq(t, "impaired deliveries", ref, got)
	if len(got) != 3 || l.A().Sent() != 3 {
		t.Fatalf("delivered %d sent %d, want 3/3", len(got), l.A().Sent())
	}
}
