package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/inet"
	"repro/internal/sim"
)

func newPkt(src, dst inet.Addr, size int) *inet.Packet {
	return &inet.Packet{Src: src, Dst: dst, Proto: inet.ProtoUDP, Size: size}
}

func TestLinkDeliversWithDelay(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	Connect(e, a, b, LinkConfig{Delay: 5 * sim.Millisecond})

	var arrived sim.Time = -1
	b.Receive = func(pkt *inet.Packet) { arrived = e.Now() }
	a.Send(newPkt(a.Addr(), b.Addr(), 100))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if arrived != 5*sim.Millisecond {
		t.Fatalf("arrived at %v, want 5ms", arrived)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	// 1 Mb/s: a 1250-byte packet takes exactly 10 ms to serialize.
	Connect(e, a, b, LinkConfig{BandwidthBPS: 1_000_000, Delay: 2 * sim.Millisecond})

	var arrived sim.Time = -1
	b.Receive = func(pkt *inet.Packet) { arrived = e.Now() }
	a.Send(newPkt(a.Addr(), b.Addr(), 1250))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if want := 12 * sim.Millisecond; arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestLinkQueuesBackToBackPackets(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	Connect(e, a, b, LinkConfig{BandwidthBPS: 1_000_000, Delay: 0})

	var arrivals []sim.Time
	b.Receive = func(pkt *inet.Packet) { arrivals = append(arrivals, e.Now()) }
	for i := 0; i < 3; i++ {
		a.Send(newPkt(a.Addr(), b.Addr(), 1250)) // 10 ms each
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestLinkDropTail(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	l := Connect(e, a, b, LinkConfig{BandwidthBPS: 1_000_000, QueueLimit: 2})

	var dropped []*inet.Packet
	l.A().DropHook = func(pkt *inet.Packet) { dropped = append(dropped, pkt) }

	received := 0
	b.Receive = func(pkt *inet.Packet) { received++ }
	// One in transmission + two queued; the rest tail-drop.
	for i := 0; i < 5; i++ {
		a.Send(newPkt(a.Addr(), b.Addr(), 1250))
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if received != 3 {
		t.Fatalf("received = %d, want 3", received)
	}
	if l.A().Dropped() != 2 || len(dropped) != 2 {
		t.Fatalf("dropped = %d (hook saw %d), want 2", l.A().Dropped(), len(dropped))
	}
	if l.A().Sent() != 3 {
		t.Fatalf("sent = %d, want 3", l.A().Sent())
	}
}

func TestLinkIsFullDuplex(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	Connect(e, a, b, LinkConfig{BandwidthBPS: 1_000_000, Delay: sim.Millisecond})

	var aGot, bGot sim.Time = -1, -1
	a.Receive = func(pkt *inet.Packet) { aGot = e.Now() }
	b.Receive = func(pkt *inet.Packet) { bGot = e.Now() }
	a.Send(newPkt(a.Addr(), b.Addr(), 1250))
	b.Send(newPkt(b.Addr(), a.Addr(), 1250))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	// Both directions proceed simultaneously: 10 ms tx + 1 ms prop each.
	if want := 11 * sim.Millisecond; aGot != want || bGot != want {
		t.Fatalf("aGot=%v bGot=%v, want both %v", aGot, bGot, want)
	}
}

func TestHostIgnoresForeignPackets(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	Connect(e, a, b, LinkConfig{})

	received := 0
	b.Receive = func(pkt *inet.Packet) { received++ }
	a.Send(newPkt(a.Addr(), inet.Addr{Net: 9, Host: 9}, 100))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if received != 0 {
		t.Fatal("host delivered packet not addressed to it")
	}
}

func TestHostDeliversTunnelsUnchanged(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	Connect(e, a, b, LinkConfig{})

	var got *inet.Packet
	b.Receive = func(pkt *inet.Packet) { got = pkt }
	inner := newPkt(a.Addr(), b.Addr(), 100)
	inner.Seq = 77
	a.Send(inner.Encapsulate(nil, a.Addr(), b.Addr()))
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got == nil || got.Proto != inet.ProtoTunnel {
		t.Fatalf("got = %v, want tunnel packet delivered unchanged", got)
	}
	if inner := got.Innermost(); inner.Seq != 77 || inner.Proto != inet.ProtoUDP {
		t.Fatalf("inner = %v", inner)
	}
}

func TestHostRejectsSecondLink(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	c := NewHost("c", inet.Addr{Net: 3, Host: 1})
	Connect(e, a, b, LinkConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("second link to a host did not panic")
		}
	}()
	Connect(e, a, c, LinkConfig{})
}

func TestIfaceString(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("alpha", inet.Addr{Net: 1, Host: 1})
	b := NewHost("beta", inet.Addr{Net: 2, Host: 1})
	l := Connect(e, a, b, LinkConfig{})
	if got := l.A().String(); got != "alpha->beta" {
		t.Fatalf("String() = %q", got)
	}
	if l.A().Peer() != Node(b) {
		t.Fatal("Peer() wrong")
	}
	if l.B().PeerIface() != l.A() {
		t.Fatal("PeerIface() wrong")
	}
}

func TestImpairDiscardsSilently(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	l := Connect(e, a, b, LinkConfig{})
	received := 0
	b.Receive = func(pkt *inet.Packet) { received++ }
	n := 0
	l.A().Impair = func(pkt *inet.Packet) bool {
		n++
		return n%2 == 1 // drop every other packet
	}
	for i := 0; i < 6; i++ {
		a.Send(newPkt(a.Addr(), b.Addr(), 100))
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if received != 3 {
		t.Fatalf("received = %d, want 3", received)
	}
	if l.A().Dropped() != 0 {
		t.Fatal("impaired packets must not count as tail drops")
	}
}

// Property: without impairment, every packet offered to an uncongested
// link is delivered exactly once (conservation).
func TestPropertyLinkConservation(t *testing.T) {
	f := func(sizes []uint8) bool {
		e := sim.NewEngine()
		a := NewHost("a", inet.Addr{Net: 1, Host: 1})
		b := NewHost("b", inet.Addr{Net: 2, Host: 1})
		Connect(e, a, b, LinkConfig{BandwidthBPS: 1_000_000, Delay: sim.Millisecond, QueueLimit: len(sizes) + 1})
		received := 0
		b.Receive = func(pkt *inet.Packet) { received++ }
		for _, s := range sizes {
			a.Send(newPkt(a.Addr(), b.Addr(), int(s)+1))
		}
		if err := e.RunAll(); err != nil {
			return false
		}
		return received == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestByteLimitedQueue(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	// Byte mode: queue holds 2000 bytes behind the transmitting packet.
	l := Connect(e, a, b, LinkConfig{BandwidthBPS: 1_000_000, QueueLimitBytes: 2000})

	received := 0
	b.Receive = func(pkt *inet.Packet) { received++ }
	// First transmits; two 1000-byte packets fill the byte budget; the
	// fourth overflows.
	for i := 0; i < 4; i++ {
		a.Send(newPkt(a.Addr(), b.Addr(), 1000))
	}
	if got := l.A().QueueBytes(); got != 2000 {
		t.Fatalf("QueueBytes = %d, want 2000", got)
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if received != 3 || l.A().Dropped() != 1 {
		t.Fatalf("received=%d dropped=%d, want 3/1", received, l.A().Dropped())
	}
	if l.A().QueueBytes() != 0 {
		t.Fatalf("QueueBytes = %d after drain, want 0", l.A().QueueBytes())
	}
}

// Property: byte accounting stays consistent with the reference queue's
// contents under any traffic pattern, and the analytic path reconstructs
// the identical value from its departure ring.
func TestPropertyByteAccounting(t *testing.T) {
	f := func(sizes []uint8) bool {
		e := sim.NewEngine()
		cfg := LinkConfig{BandwidthBPS: 100_000, QueueLimitBytes: 500}
		ref := newClassicRef(e, cfg, func(pkt *inet.Packet) {})
		c := NewHost("c", inet.Addr{Net: 3, Host: 1})
		d := NewHost("d", inet.Addr{Net: 4, Host: 1})
		lf := Connect(e, c, d, cfg)
		d.Receive = func(pkt *inet.Packet) {}
		for _, s := range sizes {
			ref.Send(newPkt(c.Addr(), d.Addr(), int(s)+1))
			c.Send(newPkt(c.Addr(), d.Addr(), int(s)+1))
			sum := 0
			for _, p := range ref.queue {
				sum += p.Size
			}
			if sum != ref.QueueBytes() || sum > 500 {
				return false
			}
			if lf.A().QueueBytes() != sum || lf.A().QueueLen() != ref.QueueLen() {
				return false
			}
		}
		if err := e.RunAll(); err != nil {
			return false
		}
		return ref.QueueBytes() == 0 && lf.A().QueueBytes() == 0 &&
			lf.A().Sent() == ref.Sent() && lf.A().Dropped() == ref.Dropped()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
