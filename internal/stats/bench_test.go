package stats

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
)

// benchPacket builds the packet reused by every recorder benchmark.
func benchPacket() *inet.Packet {
	return &inet.Packet{
		Flow: 1, Class: inet.ClassHighPriority, Proto: inet.ProtoUDP,
		Size: 160, Created: sim.Millisecond,
	}
}

func BenchmarkRecorderSent(b *testing.B) {
	r := NewRecorder()
	p := benchPacket()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Sent(p)
	}
}

func BenchmarkRecorderDeliveredStreaming(b *testing.B) {
	r := NewRecorderMode(ModeStreaming)
	p := benchPacket()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Delivered(p, sim.Time(i)+2*sim.Millisecond)
	}
}

func BenchmarkRecorderDroppedSite(b *testing.B) {
	r := NewRecorder()
	p := benchPacket()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.DroppedSite(p, SiteNARBuffer)
	}
}

func BenchmarkRecorderDroppedString(b *testing.B) {
	// The string API pays one interner lookup on top of DroppedSite.
	r := NewRecorder()
	p := benchPacket()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Dropped(p, "nar-buffer")
	}
}

func BenchmarkInternSiteHit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		InternSite("par-buffer")
	}
}

// TestRecorderHotPathAllocs pins the telemetry hot path: recording a sent,
// streamed-delivered, or dropped packet allocates nothing in steady state.
func TestRecorderHotPathAllocs(t *testing.T) {
	r := NewRecorderMode(ModeStreaming)
	p := benchPacket()
	now := sim.Time(0)
	warm := func() {
		now += sim.Millisecond
		r.Sent(p)
		r.Delivered(p, now)
		r.DroppedSite(p, SiteNARBuffer)
		r.Dropped(p, "air")
	}
	for i := 0; i < 64; i++ {
		warm()
	}
	if avg := testing.AllocsPerRun(100, warm); avg != 0 {
		t.Fatalf("streaming hot path allocates %.2f times per op; want 0", avg)
	}
}

// TestStreamingNewFlowAllocs pins per-flow state in streaming mode: a flow
// seen for the first time costs exactly its FlowStats bucket once the flow
// table has room, so memory stays O(flows) with nothing else per flow.
func TestStreamingNewFlowAllocs(t *testing.T) {
	// 100 measured runs plus one warm-up: 101 new flows fit the table.
	r := NewRecorderMode(ModeStreaming)
	r.flows = make([]*FlowStats, 0, 256)
	r.dense = make([]int32, 256)
	p := benchPacket()
	p.Flow = 0
	now := sim.Time(0)
	newFlow := func() {
		p.Flow++
		now += sim.Millisecond
		r.Sent(p)
		r.Delivered(p, now)
	}
	if avg := testing.AllocsPerRun(100, newFlow); avg != 1 {
		t.Fatalf("new streaming flow allocates %.2f times; want 1", avg)
	}
}

// TestInternSiteHitAllocs pins the interner's fast path.
func TestInternSiteHitAllocs(t *testing.T) {
	InternSite("warmed-site")
	if avg := testing.AllocsPerRun(100, func() { InternSite("warmed-site") }); avg != 0 {
		t.Fatalf("interner hit allocates %.2f times; want 0", avg)
	}
}
