package wireless

import (
	"fmt"
	"testing"

	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// airArrival is one delivery observed at a receiver: when and which packet.
type airArrival struct {
	at sim.Time
	id uint64
}

// airSide is one AR–AP–station column of the differential harness. The
// classic and fused columns live far apart on one shared medium so their
// radios never interact, and every input (downlink injections, uplink
// sends, link transitions) is applied to both columns in the same event.
type airSide struct {
	ar   *netsim.Router
	ap   *AccessPoint
	st   *Station
	addr inet.Addr

	down     []airArrival // packets delivered to the station
	up       []airArrival // uplink packets reaching the router
	airDrops []uint64
	txDrops  []uint64
}

func (a *airSide) hook(e *sim.Engine) {
	a.st.OnPacket = func(pkt *inet.Packet) { a.down = append(a.down, airArrival{e.Now(), pkt.ID}) }
	a.ar.LocalDeliver = func(in *netsim.Iface, pkt *inet.Packet) bool {
		a.up = append(a.up, airArrival{e.Now(), pkt.ID})
		return true
	}
	a.ap.AirDropHook = func(pkt *inet.Packet) { a.airDrops = append(a.airDrops, pkt.ID) }
	a.st.TxDropHook = func(pkt *inet.Packet) { a.txDrops = append(a.txDrops, pkt.ID) }
}

// TestFusedAirMatchesClassicDifferential is the seeded differential
// property test for the analytic radio path (DESIGN.md §13): random
// bandwidth/AirDelay/queue-limit/blackout configurations carry identical
// downlink bursts, uplink bursts, and link transitions (detach, switch,
// re-associate — exercising the NIC-reset repair) through a fused and a
// classic AP+station column side by side on one engine. Every observable —
// delivery times and order on both directions, drop decisions and hook
// order, and the Sent/QueueLen/drop counters read at random mid-run
// instants — must match exactly. Runs under -race in CI.
func TestFusedAirMatchesClassicDifferential(t *testing.T) {
	bands := []int64{0, 125_000, 1_000_000, 11_000_000, 1_000_000_000}
	delays := []sim.Time{0, sim.Millisecond, 3 * sim.Millisecond}
	qlims := []int{0, 1, 2, 5, 20}
	blackouts := []sim.Time{0, sim.Millisecond, 50 * sim.Millisecond}

	for trial := 0; trial < 80; trial++ {
		rng := sim.NewRNG(int64(trial)*7919 + 1)
		band := bands[rng.Intn(len(bands))]
		delay := delays[rng.Intn(len(delays))]
		qlim := qlims[rng.Intn(len(qlims))]
		blackout := blackouts[rng.Intn(len(blackouts))]
		bounce := rng.Intn(2) == 1
		start := float64(rng.Intn(301) - 150) // in or out of the 112 m radius
		speed := float64(rng.Intn(41) - 20)

		e := sim.NewEngine()
		topo := netsim.NewTopology(e)
		medium := NewMedium(e)
		build := func(fused bool, name string, off float64, net inet.NetID) *airSide {
			prev := SetFusedAir(fused)
			defer SetFusedAir(prev)
			ar := netsim.NewRouter("ar-"+name, inet.Addr{Net: net, Host: 1})
			ap := NewAccessPoint("ap-"+name, medium, APConfig{
				Pos: off, Radius: 112, BandwidthBPS: band, AirDelay: delay,
				QueueLimit: qlim, ReturnUndeliverable: bounce,
			})
			link := topo.Connect(ar, ap, netsim.LinkConfig{BandwidthBPS: 100_000_000, Delay: sim.Millisecond / 2})
			ar.AddPrefixRoute(net, link.A())
			st := NewStation("mh-"+name, medium, Linear{Start: off + start, Speed: speed}, StationConfig{
				BandwidthBPS: band, AirDelay: delay, L2HandoffDelay: blackout, QueueLimit: qlim,
			})
			side := &airSide{ar: ar, ap: ap, st: st, addr: inet.Addr{Net: net, Host: 5}}
			st.AddAddr(side.addr)
			st.Associate(ap)
			side.hook(e)
			return side
		}
		classic := build(false, "c", 0, 10)
		fused := build(true, "f", 1e6, 20)
		both := [2]*airSide{classic, fused}

		var nextID uint64
		// Downlink and uplink bursts: the same (id, size) sequence enters
		// both columns in the same event.
		for k, bursts := 0, 4+rng.Intn(12); k < bursts; k++ {
			at := sim.Time(rng.Intn(40)) * sim.Millisecond
			uplink := rng.Intn(2) == 1
			n := 1 + rng.Intn(6)
			sizes := make([]int, n)
			for j := range sizes {
				sizes[j] = 40 + rng.Intn(1461)
			}
			e.At(at, func() {
				for _, size := range sizes {
					nextID++
					for _, s := range both {
						if uplink {
							s.st.Send(&inet.Packet{ID: nextID, Src: s.addr, Dst: s.ar.Addr(),
								Proto: inet.ProtoControl, Size: size})
						} else {
							s.ap.transmitDown(&inet.Packet{ID: nextID, Dst: s.addr,
								Proto: inet.ProtoUDP, Size: size})
						}
					}
				}
			})
		}
		// Link transitions: detaches and switches hit mid-serialization,
		// exercising the fused path's NIC-reset repair and hold queue.
		for k, trans := 0, 2+rng.Intn(5); k < trans; k++ {
			at := sim.Time(rng.Intn(45)) * sim.Millisecond
			op := rng.Intn(3)
			e.At(at, func() {
				for _, s := range both {
					switch op {
					case 0:
						s.st.Detach()
					case 1:
						s.st.SwitchTo(s.ap)
					case 2:
						s.st.Associate(s.ap)
					}
				}
			})
		}
		// Random mid-run readers: the lazily drained rings must
		// reconstruct the classic counters at every instant.
		for k := 0; k < 8; k++ {
			at := sim.Time(rng.Intn(50)) * sim.Millisecond
			e.At(at, func() {
				if classic.ap.QueueLen() != fused.ap.QueueLen() || classic.ap.Sent() != fused.ap.Sent() ||
					classic.ap.AirDrops() != fused.ap.AirDrops() ||
					classic.st.QueueLen() != fused.st.QueueLen() || classic.st.Sent() != fused.st.Sent() ||
					classic.st.TxDrops() != fused.st.TxDrops() {
					t.Errorf("trial %d at %v: classic ap(q=%d sent=%d drops=%d) st(q=%d sent=%d drops=%d) vs fused ap(q=%d sent=%d drops=%d) st(q=%d sent=%d drops=%d)",
						trial, e.Now(),
						classic.ap.QueueLen(), classic.ap.Sent(), classic.ap.AirDrops(),
						classic.st.QueueLen(), classic.st.Sent(), classic.st.TxDrops(),
						fused.ap.QueueLen(), fused.ap.Sent(), fused.ap.AirDrops(),
						fused.st.QueueLen(), fused.st.Sent(), fused.st.TxDrops())
				}
			})
		}

		if err := e.RunAll(); err != nil {
			t.Fatalf("trial %d: RunAll: %v", trial, err)
		}

		cmpSeq := func(what string, c, f []airArrival) {
			if len(c) != len(f) {
				t.Fatalf("trial %d: %d classic %s vs %d fused", trial, len(c), what, len(f))
			}
			for j := range c {
				if c[j] != f[j] {
					t.Fatalf("trial %d: %s %d: classic %+v, fused %+v", trial, what, j, c[j], f[j])
				}
			}
		}
		cmpSeq("downlink deliveries", classic.down, fused.down)
		cmpSeq("uplink deliveries", classic.up, fused.up)
		cmpIDs := func(what string, c, f []uint64) {
			if len(c) != len(f) {
				t.Fatalf("trial %d: %d classic %s vs %d fused", trial, len(c), what, len(f))
			}
			for j := range c {
				if c[j] != f[j] {
					t.Fatalf("trial %d: %s %d: classic id %d, fused id %d", trial, what, j, c[j], f[j])
				}
			}
		}
		cmpIDs("air drops", classic.airDrops, fused.airDrops)
		cmpIDs("tx drops", classic.txDrops, fused.txDrops)
		if classic.ap.Sent() != fused.ap.Sent() || classic.st.Sent() != fused.st.Sent() ||
			classic.st.TxDrops() != fused.st.TxDrops() || classic.ap.AirDrops() != fused.ap.AirDrops() {
			t.Fatalf("trial %d: final counters diverge: classic ap.sent=%d st.sent=%d st.drops=%d ap.drops=%d, fused ap.sent=%d st.sent=%d st.drops=%d ap.drops=%d",
				trial, classic.ap.Sent(), classic.st.Sent(), classic.st.TxDrops(), classic.ap.AirDrops(),
				fused.ap.Sent(), fused.st.Sent(), fused.st.TxDrops(), fused.ap.AirDrops())
		}
	}
}

// TestFusedAirHalvesAirEvents pins the event economics the fusion buys:
// a downlink (or uplink) frame costs one scheduler event instead of the
// classic txDone + airArrive pair.
func TestFusedAirHalvesAirEvents(t *testing.T) {
	const n = 100
	run := func(fused, uplink bool) uint64 {
		prev := SetFusedAir(fused)
		defer SetFusedAir(prev)
		e := sim.NewEngine()
		topo := netsim.NewTopology(e)
		medium := NewMedium(e)
		ar := netsim.NewRouter("ar", inet.Addr{Net: 10, Host: 1})
		ap := NewAccessPoint("ap", medium, APConfig{Pos: 0, Radius: 112, BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
		topo.Connect(ar, ap, netsim.LinkConfig{})
		st := NewStation("mh", medium, Fixed(10), StationConfig{BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
		addr := inet.Addr{Net: 10, Host: 5}
		st.AddAddr(addr)
		st.Associate(ap)
		e.At(0, func() {
			for i := 0; i < n; i++ {
				if uplink {
					st.Send(&inet.Packet{Src: addr, Dst: ar.Addr(), Proto: inet.ProtoControl, Size: 160})
				} else {
					ap.transmitDown(&inet.Packet{Dst: addr, Proto: inet.ProtoUDP, Size: 160})
				}
			}
		})
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		return e.Processed()
	}
	// Downlink: burst event + n×(txDone + airArrive) classic, burst + n
	// pinned deliveries fused.
	if got := run(false, false); got != 1+2*n {
		t.Fatalf("classic downlink events = %d, want %d", got, 1+2*n)
	}
	if got := run(true, false); got != 1+n {
		t.Fatalf("fused downlink events = %d, want %d", got, 1+n)
	}
	// Uplink additionally crosses the wired hop: +n deliveries.
	if got := run(false, true); got != 1+3*n {
		t.Fatalf("classic uplink events = %d, want %d", got, 1+3*n)
	}
	if got := run(true, true); got != 1+2*n {
		t.Fatalf("fused uplink events = %d, want %d", got, 1+2*n)
	}
}

// TestAirHopZeroAlloc pins the radio data plane allocation-free in the
// current air mode for both directions (CI runs it fused and, via the
// WIRELESS_FUSED=0 step, classic).
func TestAirHopZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	topo := netsim.NewTopology(e)
	medium := NewMedium(e)
	ar := netsim.NewRouter("ar", inet.Addr{Net: 10, Host: 1})
	ap := NewAccessPoint("ap", medium, APConfig{Pos: 0, Radius: 112, BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
	link := topo.Connect(ar, ap, netsim.LinkConfig{BandwidthBPS: 100_000_000})
	ar.AddPrefixRoute(10, link.A())
	ar.LocalDeliver = func(in *netsim.Iface, pkt *inet.Packet) bool { return true }
	st := NewStation("mh", medium, Fixed(10), StationConfig{BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
	addr := inet.Addr{Net: 10, Host: 5}
	st.AddAddr(addr)
	st.Associate(ap)

	down := &inet.Packet{Dst: addr, Proto: inet.ProtoUDP, Size: 160}
	up := &inet.Packet{Src: addr, Dst: ar.Addr(), Proto: inet.ProtoControl, Size: 64}
	for i := 0; i < 64; i++ { // warm up rings, FIFOs, and the event free list
		ap.transmitDown(down)
		st.Send(up)
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		ap.transmitDown(down)
		e.RunAll() //nolint:errcheck // drained below
	}); allocs != 0 {
		t.Fatalf("downlink air hop allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		st.Send(up)
		e.RunAll() //nolint:errcheck // drained below
	}); allocs != 0 {
		t.Fatalf("uplink air hop allocates %.1f/op, want 0", allocs)
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

func benchAirHop(b *testing.B, fused bool) {
	prev := SetFusedAir(fused)
	defer SetFusedAir(prev)
	e := sim.NewEngine()
	medium := NewMedium(e)
	ap := NewAccessPoint("ap", medium, APConfig{Pos: 0, Radius: 112, BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
	st := NewStation("mh", medium, Fixed(10), StationConfig{})
	addr := inet.Addr{Net: 10, Host: 5}
	st.AddAddr(addr)
	st.Associate(ap)
	pkt := &inet.Packet{Dst: addr, Proto: inet.ProtoUDP, Size: 160}
	for i := 0; i < 64; i++ {
		ap.transmitDown(pkt)
		if err := e.RunAll(); err != nil {
			b.Fatalf("RunAll: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ap.transmitDown(pkt)
		e.RunAll() //nolint:errcheck // benchmark hot loop
	}
}

func BenchmarkAirHopFused(b *testing.B)   { benchAirHop(b, true) }
func BenchmarkAirHopClassic(b *testing.B) { benchAirHop(b, false) }

// BenchmarkBeaconScan sweeps the station population with a fixed
// in-coverage count (~23): with the position-bucket index the per-beacon
// cost must stay flat instead of scaling with the population.
func BenchmarkBeaconScan(b *testing.B) {
	for _, n := range []int{100, 400, 1000, 4000} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			e := sim.NewEngine()
			medium := NewMedium(e)
			ap := NewAccessPoint("ap", medium, APConfig{Pos: float64(n) * 5, Radius: 112})
			for i := 0; i < n; i++ {
				NewStation(fmt.Sprintf("s%d", i), medium, Fixed(float64(i)*10), StationConfig{})
			}
			ap.adv = Advertisement{AP: ap, Net: 10}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ap.beacon()
			}
		})
	}
}
