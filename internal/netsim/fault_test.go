package netsim

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
)

// faultRig is a one-link world for exercising the injector: a sends, b
// records which sequence numbers survived.
type faultRig struct {
	e    *sim.Engine
	a, b *Host
	l    *Link
	got  []uint32
}

func newFaultRig() *faultRig {
	r := &faultRig{e: sim.NewEngine()}
	r.a = NewHost("a", inet.Addr{Net: 1, Host: 1})
	r.b = NewHost("b", inet.Addr{Net: 2, Host: 1})
	r.l = Connect(r.e, r.a, r.b, LinkConfig{Delay: sim.Millisecond})
	r.b.Receive = func(pkt *inet.Packet) { r.got = append(r.got, pkt.Seq) }
	return r
}

func (r *faultRig) send(t *testing.T, n int, proto inet.Proto) {
	t.Helper()
	for i := 0; i < n; i++ {
		r.a.Send(&inet.Packet{
			Src: r.a.Addr(), Dst: r.b.Addr(), Proto: proto, Seq: uint32(i), Size: 100,
		})
	}
	if err := r.e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

// survivors runs n packets through a fresh rig under the given seed and
// config and returns the delivered sequence numbers.
func survivors(t *testing.T, seed int64, cfg FaultConfig, n int) []uint32 {
	t.Helper()
	r := newFaultRig()
	fi := NewFaultInjector(seed)
	fi.Attach(r.l.A(), cfg)
	r.send(t, n, inet.ProtoUDP)
	return r.got
}

func TestFaultInjectorDeterministicPerSeed(t *testing.T) {
	cfg := FaultConfig{LossRate: 0.3}
	first := survivors(t, 42, cfg, 200)
	again := survivors(t, 42, cfg, 200)
	if len(first) == 0 || len(first) == 200 {
		t.Fatalf("degenerate pattern: %d/200 survived", len(first))
	}
	if len(first) != len(again) {
		t.Fatalf("same seed, different survivor counts: %d vs %d", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("same seed, different pattern at %d: %d vs %d", i, first[i], again[i])
		}
	}
	other := survivors(t, 43, cfg, 200)
	same := len(other) == len(first)
	if same {
		for i := range first {
			if first[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 200-packet patterns")
	}
}

// The fault pattern on one interface must not depend on traffic crossing
// other attached interfaces: each interface draws from its own stream.
func TestFaultInjectorStreamsAreIndependent(t *testing.T) {
	run := func(reverseTraffic int) []uint32 {
		r := newFaultRig()
		fi := NewFaultInjector(7)
		cfg := FaultConfig{LossRate: 0.3}
		fi.Attach(r.l.A(), cfg)
		fi.Attach(r.l.B(), cfg)
		r.a.Receive = func(pkt *inet.Packet) {}
		// Interleave b→a traffic, which consumes draws from B's stream only.
		for i := 0; i < reverseTraffic; i++ {
			r.b.Send(&inet.Packet{
				Src: r.b.Addr(), Dst: r.a.Addr(), Proto: inet.ProtoUDP, Size: 100,
			})
		}
		r.send(t, 100, inet.ProtoUDP)
		return r.got
	}
	quiet := run(0)
	busy := run(50)
	if len(quiet) != len(busy) {
		t.Fatalf("reverse traffic changed the forward pattern: %d vs %d survivors",
			len(quiet), len(busy))
	}
	for i := range quiet {
		if quiet[i] != busy[i] {
			t.Fatalf("reverse traffic changed the forward pattern at %d", i)
		}
	}
}

func TestFaultInjectorControlOnlySparesData(t *testing.T) {
	r := newFaultRig()
	fi := NewFaultInjector(1)
	fi.Attach(r.l.A(), FaultConfig{LossRate: 1, ControlOnly: true})
	r.send(t, 10, inet.ProtoUDP)
	if len(r.got) != 10 {
		t.Fatalf("data packets injected despite ControlOnly: %d/10 survived", len(r.got))
	}
	r.got = nil
	r.send(t, 10, inet.ProtoControl)
	if len(r.got) != 0 {
		t.Fatalf("control packets survived LossRate 1: %d", len(r.got))
	}
	if got := fi.Lost(r.l.A()); got != 10 {
		t.Fatalf("Lost = %d, want 10", got)
	}
}

// Tunnelled control must be recognized through the encapsulation, since
// inter-router signaling may ride a tunnel.
func TestFaultInjectorControlOnlySeesTunnelledControl(t *testing.T) {
	r := newFaultRig()
	fi := NewFaultInjector(1)
	fi.Attach(r.l.A(), FaultConfig{LossRate: 1, ControlOnly: true})
	inner := &inet.Packet{
		Src: r.a.Addr(), Dst: r.b.Addr(), Proto: inet.ProtoControl, Size: 64,
	}
	r.a.Send(inner.Encapsulate(nil, r.a.Addr(), r.b.Addr()))
	if err := r.e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(r.got) != 0 {
		t.Fatal("tunnelled control escaped the ControlOnly injector")
	}
}

func TestFaultInjectorClampsRates(t *testing.T) {
	if got := survivors(t, 1, FaultConfig{LossRate: 2}, 10); len(got) != 0 {
		t.Fatalf("LossRate 2 (clamped to 1) let %d packets through", len(got))
	}
	if got := survivors(t, 1, FaultConfig{LossRate: -1, CorruptRate: -1}, 10); len(got) != 10 {
		t.Fatalf("negative rates (clamped to 0) dropped packets: %d/10", len(got))
	}
}

func TestFaultInjectorCorruptionCountsSeparately(t *testing.T) {
	r := newFaultRig()
	fi := NewFaultInjector(1)
	var corrupt, silent int
	fi.OnInject = func(ifc *Iface, pkt *inet.Packet, corrupted bool) {
		if corrupted {
			corrupt++
		} else {
			silent++
		}
	}
	fi.Attach(r.l.A(), FaultConfig{CorruptRate: 1})
	r.send(t, 5, inet.ProtoUDP)
	if len(r.got) != 0 {
		t.Fatalf("corrupted packets delivered: %d", len(r.got))
	}
	if fi.Corrupted(r.l.A()) != 5 || fi.Lost(r.l.A()) != 0 {
		t.Fatalf("counters: corrupted=%d lost=%d, want 5/0",
			fi.Corrupted(r.l.A()), fi.Lost(r.l.A()))
	}
	if corrupt != 5 || silent != 0 {
		t.Fatalf("observer saw corrupt=%d silent=%d, want 5/0", corrupt, silent)
	}
	if fi.Injected() != 5 {
		t.Fatalf("Injected = %d, want 5", fi.Injected())
	}
	// Unattached interfaces report zero, not a panic.
	if fi.Lost(r.l.B()) != 0 || fi.Corrupted(r.l.B()) != 0 {
		t.Fatal("unattached interface reported nonzero counters")
	}
}

// An Impair hook present before Attach must keep seeing the packets the
// injector lets through.
func TestFaultInjectorChainsExistingImpair(t *testing.T) {
	r := newFaultRig()
	seen := 0
	r.l.A().Impair = func(pkt *inet.Packet) bool {
		seen++
		return pkt.Seq == 0 // the hook itself drops the first packet
	}
	fi := NewFaultInjector(9)
	fi.Attach(r.l.A(), FaultConfig{LossRate: 0.4})
	r.send(t, 50, inet.ProtoUDP)

	injected := int(fi.Lost(r.l.A()))
	if injected == 0 {
		t.Fatal("injector never engaged")
	}
	if want := 50 - injected; seen != want {
		t.Fatalf("chained hook saw %d packets, want %d (survivors of %d injected)",
			seen, want, injected)
	}
	for _, seq := range r.got {
		if seq == 0 {
			t.Fatal("chained hook's own drop was lost")
		}
	}
}

// Re-attaching reconfigures in place: the stream and counters carry on.
func TestFaultInjectorReattachKeepsStream(t *testing.T) {
	r := newFaultRig()
	fi := NewFaultInjector(3)
	fi.Attach(r.l.A(), FaultConfig{LossRate: 1})
	r.send(t, 5, inet.ProtoUDP)
	if len(r.got) != 0 {
		t.Fatalf("first config let %d packets through", len(r.got))
	}
	fi.Attach(r.l.A(), FaultConfig{LossRate: 0})
	r.send(t, 5, inet.ProtoUDP)
	if len(r.got) != 5 {
		t.Fatalf("re-attached config dropped packets: %d/5", len(r.got))
	}
	if fi.Lost(r.l.A()) != 5 {
		t.Fatalf("Lost = %d after reattach, want 5 (counters kept)", fi.Lost(r.l.A()))
	}
}
