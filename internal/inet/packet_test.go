package inet

import (
	"strings"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		ID:      7,
		Src:     Addr{Net: 1, Host: 1},
		Dst:     Addr{Net: 2, Host: 5},
		Proto:   ProtoUDP,
		Class:   ClassRealTime,
		Flow:    3,
		Seq:     42,
		Size:    160,
		Created: 1000,
	}
}

func TestEncapsulatePreservesMetadata(t *testing.T) {
	p := samplePacket()
	tun := p.Encapsulate(nil, Addr{Net: 9, Host: 1}, Addr{Net: 9, Host: 2})

	if tun.Proto != ProtoTunnel {
		t.Fatalf("Proto = %v, want tunnel", tun.Proto)
	}
	if tun.Size != p.Size+TunnelHeaderSize {
		t.Fatalf("Size = %d, want %d", tun.Size, p.Size+TunnelHeaderSize)
	}
	if tun.Class != p.Class {
		t.Fatalf("outer Class = %v, want %v (copied for classification)", tun.Class, p.Class)
	}
	if tun.Created != p.Created {
		t.Fatalf("Created = %v, want %v", tun.Created, p.Created)
	}
	if tun.Flow != p.Flow || tun.Seq != p.Seq || tun.ID != p.ID {
		t.Fatal("flow/seq/id not propagated to outer header")
	}
	if tun.Inner != p {
		t.Fatal("Inner does not reference the original packet")
	}
}

func TestDecapsulate(t *testing.T) {
	p := samplePacket()
	tun := p.Encapsulate(nil, Addr{Net: 9, Host: 1}, Addr{Net: 9, Host: 2})
	if got := tun.Decapsulate(); got != p {
		t.Fatalf("Decapsulate = %v, want original", got)
	}
	if got := p.Decapsulate(); got != nil {
		t.Fatalf("Decapsulate on non-tunnel = %v, want nil", got)
	}
}

func TestInnermostThroughNestedTunnels(t *testing.T) {
	p := samplePacket()
	t1 := p.Encapsulate(nil, Addr{Net: 9, Host: 1}, Addr{Net: 9, Host: 2})
	t2 := t1.Encapsulate(nil, Addr{Net: 8, Host: 1}, Addr{Net: 8, Host: 2})

	if got := t2.Innermost(); got != p {
		t.Fatal("Innermost did not reach the original packet")
	}
	if got := p.Innermost(); got != p {
		t.Fatal("Innermost on plain packet changed identity")
	}
	if t2.Size != p.Size+2*TunnelHeaderSize {
		t.Fatalf("nested Size = %d, want %d", t2.Size, p.Size+2*TunnelHeaderSize)
	}
}

func TestCloneIsDeepForEncapsulation(t *testing.T) {
	p := samplePacket()
	tun := p.Encapsulate(nil, Addr{Net: 9, Host: 1}, Addr{Net: 9, Host: 2})
	cp := tun.Clone(nil)

	if cp == tun || cp.Inner == tun.Inner {
		t.Fatal("Clone shares packet structs")
	}
	cp.Inner.Seq = 99
	if p.Seq != 42 {
		t.Fatal("mutating clone's inner packet affected the original")
	}
}

func TestEffectiveClass(t *testing.T) {
	p := samplePacket()
	p.Class = ClassUnspecified
	if got := p.EffectiveClass(); got != ClassBestEffort {
		t.Fatalf("EffectiveClass = %v, want best-effort", got)
	}
}

func TestPacketString(t *testing.T) {
	p := samplePacket()
	s := p.String()
	for _, want := range []string{"udp", "1:1", "2:5", "seq=42", "real-time"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	tun := p.Encapsulate(nil, Addr{Net: 9, Host: 1}, Addr{Net: 9, Host: 2})
	if ts := tun.String(); !strings.Contains(ts, "tunnel[9:1->9:2]") {
		t.Errorf("tunnel String() = %q", ts)
	}
}

func TestProtoString(t *testing.T) {
	tests := []struct {
		give Proto
		want string
	}{
		{ProtoUDP, "udp"},
		{ProtoTCP, "tcp"},
		{ProtoControl, "control"},
		{ProtoTunnel, "tunnel"},
		{Proto(99), "proto(99)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Proto.String() = %q, want %q", got, tt.want)
		}
	}
}

// Property: encapsulate/decapsulate is the identity for any endpoints, and
// size grows by exactly the tunnel header.
func TestPropertyTunnelRoundTrip(t *testing.T) {
	f := func(srcNet, srcHost, dstNet, dstHost uint32, size uint16) bool {
		p := samplePacket()
		p.Size = int(size)
		src := Addr{Net: NetID(srcNet), Host: HostID(srcHost)}
		dst := Addr{Net: NetID(dstNet), Host: HostID(dstHost)}
		tun := p.Encapsulate(nil, src, dst)
		return tun.Decapsulate() == p &&
			tun.Size == p.Size+TunnelHeaderSize &&
			tun.Src == src && tun.Dst == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncapsulateFromPool: a wrapper drawn from a pool carries the same
// header as a heap wrapper and records the pool as its origin, and so does
// each layer of a pooled clone; the pool takes back only its own packets.
func TestEncapsulateFromPool(t *testing.T) {
	var pool, other PacketPool
	p := samplePacket()
	heap := p.Encapsulate(nil, Addr{Net: 9, Host: 1}, Addr{Net: 9, Host: 2})
	pooled := p.Encapsulate(pool.Get, Addr{Net: 9, Host: 1}, Addr{Net: 9, Host: 2})
	if heap.Origin() != nil || pooled.Origin() != &pool {
		t.Fatalf("origins heap=%p pooled=%p, want nil and the pool", heap.Origin(), pooled.Origin())
	}
	cmp := *pooled
	cmp.origin = nil
	if cmp != *heap {
		t.Fatalf("pooled wrapper %+v differs from heap wrapper %+v", *pooled, *heap)
	}

	cp := pooled.Clone(other.Get)
	if cp.Origin() != &other || cp.Inner.Origin() != &other || cp.Inner == p {
		t.Fatal("pooled Clone did not draw every layer from the pool")
	}
	if cp.Seq != p.Seq || cp.Inner.Seq != p.Seq || cp.Size != p.Size+TunnelHeaderSize {
		t.Fatalf("pooled Clone lost header fields: %v", cp)
	}

	pool.Put(heap) // a heap packet is not adopted
	pool.Put(pooled)
	if pool.Len() != 1 {
		t.Fatalf("pool holds %d packets, want only its own wrapper", pool.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of another pool's packet did not panic")
		}
	}()
	pool.Put(cp)
}
