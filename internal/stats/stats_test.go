package stats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/inet"
	"repro/internal/sim"
)

func pkt(flow inet.FlowID, class inet.Class, seq uint32, created sim.Time) *inet.Packet {
	return &inet.Packet{Flow: flow, Class: class, Seq: seq, Created: created,
		Proto: inet.ProtoUDP, Size: 160}
}

func TestRecorderSentDelivered(t *testing.T) {
	r := NewRecorder()
	p := pkt(1, inet.ClassRealTime, 0, 100*sim.Millisecond)
	r.Sent(p)
	r.Delivered(p, 150*sim.Millisecond)

	f := r.Flow(1)
	if f == nil {
		t.Fatal("flow missing")
	}
	if f.Sent != 1 || f.Delivered != 1 || f.Lost() != 0 {
		t.Fatalf("flow stats: %+v", f)
	}
	if len(f.Delays) != 1 || f.Delays[0].Delay != 50*sim.Millisecond {
		t.Fatalf("delay sample wrong: %+v", f.Delays)
	}
	if f.Class != inet.ClassRealTime {
		t.Fatalf("class = %v", f.Class)
	}
}

func TestRecorderLost(t *testing.T) {
	r := NewRecorder()
	for i := uint32(0); i < 5; i++ {
		p := pkt(1, inet.ClassBestEffort, i, 0)
		r.Sent(p)
		if i%2 == 0 {
			r.Delivered(p, sim.Millisecond)
		}
	}
	if got := r.Flow(1).Lost(); got != 2 {
		t.Fatalf("Lost = %d, want 2", got)
	}
	if r.TotalSent() != 5 || r.TotalDelivered() != 3 || r.TotalLost() != 2 {
		t.Fatalf("totals: sent=%d delivered=%d lost=%d",
			r.TotalSent(), r.TotalDelivered(), r.TotalLost())
	}
}

func TestRecorderDroppedChargesInnermostFlow(t *testing.T) {
	r := NewRecorder()
	inner := pkt(7, inet.ClassHighPriority, 3, 0)
	tunnel := inner.Encapsulate(nil, inet.Addr{Net: 2, Host: 1}, inet.Addr{Net: 3, Host: 1})
	r.Dropped(tunnel, "nar-buffer")
	if got := r.Flow(7).DroppedAt("nar-buffer"); got != 1 {
		t.Fatalf("drop not charged to inner flow: %d", got)
	}
	if r.DropsAt("nar-buffer") != 1 {
		t.Fatal("aggregate drop count missing")
	}
	if r.Flow(7).DroppedTotal() != 1 {
		t.Fatal("DroppedTotal wrong")
	}
}

func TestRecorderDroppedDoublyTunneled(t *testing.T) {
	// Two layers of encapsulation (MAP tunnel inside an AR forwarding
	// tunnel): the drop is still charged to the innermost flow.
	r := NewRecorder()
	inner := pkt(9, inet.ClassRealTime, 1, 0)
	mid := inner.Encapsulate(nil, inet.Addr{Net: 2, Host: 1}, inet.Addr{Net: 3, Host: 1})
	outer := mid.Encapsulate(nil, inet.Addr{Net: 3, Host: 1}, inet.Addr{Net: 4, Host: 1})
	r.DroppedSite(outer, SitePARBuffer)
	if got := r.Flow(9).DroppedAtSite(SitePARBuffer); got != 1 {
		t.Fatalf("doubly tunneled drop not charged to innermost flow: %d", got)
	}
	if r.DropsAtSite(SitePARBuffer) != 1 || r.DropsAt("par-buffer") != 1 {
		t.Fatal("aggregate counters diverge between site and string APIs")
	}
}

func TestRecorderDroppedStringAndSiteAgree(t *testing.T) {
	// Dropped(where string) is sugar for DroppedSite(InternSite(where)):
	// both must feed the same counters.
	r := NewRecorder()
	p1 := pkt(1, inet.ClassBestEffort, 0, 0)
	p2 := pkt(1, inet.ClassBestEffort, 1, 0)
	r.Dropped(p1, "nar-buffer")
	r.DroppedSite(p2, SiteNARBuffer)
	if got := r.Flow(1).DroppedAt("nar-buffer"); got != 2 {
		t.Fatalf("mixed-API drops = %d, want 2", got)
	}
	if r.DropsAtSite(SiteNARBuffer) != 2 {
		t.Fatal("aggregate mixed-API drops wrong")
	}
}

func TestRecorderDroppedFlowZeroDataStillCounted(t *testing.T) {
	// A data packet without a flow label charges no per-flow counter but
	// the aggregate site counter must still move.
	r := NewRecorder()
	p := &inet.Packet{Proto: inet.ProtoUDP, Size: 160} // Flow 0
	r.Dropped(p, "lifetime")
	if len(r.Flows()) != 0 {
		t.Fatal("flow-less drop created a flow")
	}
	if r.DropsAt("lifetime") != 1 {
		t.Fatal("aggregate drop for flow-less packet missing")
	}
}

func TestRecorderDroppedControlNotCharged(t *testing.T) {
	r := NewRecorder()
	ctrl := &inet.Packet{Proto: inet.ProtoControl, Size: 64} // Flow 0
	r.Dropped(ctrl, "air")
	if len(r.Flows()) != 0 {
		t.Fatal("control drop created a flow")
	}
	if r.DropsAt("air") != 1 {
		t.Fatal("aggregate air drop not counted")
	}
}

func TestRecorderFlowsSorted(t *testing.T) {
	r := NewRecorder()
	r.DeclareFlow(3, inet.ClassBestEffort)
	r.DeclareFlow(1, inet.ClassRealTime)
	r.DeclareFlow(2, inet.ClassHighPriority)
	flows := r.Flows()
	if len(flows) != 3 || flows[0].Flow != 1 || flows[1].Flow != 2 || flows[2].Flow != 3 {
		t.Fatalf("Flows() not sorted: %v", flows)
	}
}

func TestFlowDelayAggregates(t *testing.T) {
	f := &FlowStats{}
	if f.MaxDelay() != 0 || f.MeanDelay() != 0 {
		t.Fatal("empty flow aggregates not zero")
	}
	r := NewRecorder()
	for i, d := range []sim.Time{10, 30, 20} {
		r.Delivered(pkt(1, inet.ClassBestEffort, uint32(i), 0), d*sim.Millisecond)
	}
	f = r.Flow(1)
	if f.MaxDelay() != 30*sim.Millisecond {
		t.Fatalf("MaxDelay = %v", f.MaxDelay())
	}
	if f.MeanDelay() != 20*sim.Millisecond {
		t.Fatalf("MeanDelay = %v", f.MeanDelay())
	}
}

func TestFlowLostNeverNegative(t *testing.T) {
	f := &FlowStats{Sent: 1, Delivered: 3}
	if f.Lost() != 0 {
		t.Fatalf("Lost = %d, want clamped 0", f.Lost())
	}
}

// TestStreamingDifferential replays one seeded operation stream through an
// exact-mode and a streaming-mode recorder: every counter and running
// delay aggregate must agree exactly.
func TestStreamingDifferential(t *testing.T) {
	exact := NewRecorder()
	stream := NewRecorderMode(ModeStreaming)
	rng := rand.New(rand.NewSource(42))

	sites := []string{"par-buffer", "nar-buffer", "par-policy", "lifetime", "air"}
	now := sim.Time(0)
	for i := 0; i < 20_000; i++ {
		now += sim.Time(rng.Intn(1000) + 1)
		flow := inet.FlowID(rng.Intn(8) + 1)
		p := &inet.Packet{
			Flow: flow, Proto: inet.ProtoUDP, Size: 160,
			Class:   inet.Classes[int(flow)%3],
			Seq:     uint32(i),
			Created: now,
		}
		exact.Sent(p)
		stream.Sent(p)
		switch rng.Intn(10) {
		case 0: // lost somewhere
			site := sites[rng.Intn(len(sites))]
			exact.Dropped(p, site)
			stream.Dropped(p, site)
		default:
			at := now + sim.Time(rng.Intn(200_000)+20)
			exact.Delivered(p, at)
			stream.Delivered(p, at)
		}
	}

	if exact.TotalSent() != stream.TotalSent() ||
		exact.TotalDelivered() != stream.TotalDelivered() ||
		exact.TotalLost() != stream.TotalLost() {
		t.Fatal("totals diverge between modes")
	}
	for site, n := range exact.SiteDrops() {
		if stream.SiteDrops()[site] != n {
			t.Fatalf("site %s drop counts diverge", DropSite(site))
		}
	}
	ef, sf := exact.Flows(), stream.Flows()
	if len(ef) != len(sf) {
		t.Fatalf("flow counts diverge: %d vs %d", len(ef), len(sf))
	}
	for i := range ef {
		e, s := ef[i], sf[i]
		if e.Flow != s.Flow || e.Sent != s.Sent || e.Delivered != s.Delivered {
			t.Fatalf("flow %d counters diverge", e.Flow)
		}
		if e.DelayCount() != s.DelayCount() {
			t.Fatalf("flow %d delay counts diverge", e.Flow)
		}
		// Running aggregates share the same arithmetic: exact equality.
		if e.MaxDelay() != s.MaxDelay() || e.MeanDelay() != s.MeanDelay() || e.Jitter() != s.Jitter() {
			t.Fatalf("flow %d aggregate delays diverge", e.Flow)
		}
		if len(s.Delays) != 0 {
			t.Fatalf("streaming flow %d retained %d samples", s.Flow, len(s.Delays))
		}
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries(100 * sim.Millisecond)
	ts.Add(50*sim.Millisecond, 10)
	ts.Add(99*sim.Millisecond, 5)
	ts.Add(150*sim.Millisecond, 7)
	ts.Add(-sim.Millisecond, 100) // ignored

	b := ts.Buckets()
	if len(b) != 2 || b[0] != 15 || b[1] != 7 {
		t.Fatalf("buckets = %v", b)
	}
	rate := ts.Rate()
	if rate[0].Value != 150 || rate[1].Value != 70 {
		t.Fatalf("rate = %v", rate)
	}
	if rate[1].At != 100*sim.Millisecond {
		t.Fatalf("rate timestamp = %v", rate[1].At)
	}
	if ts.Window() != 100*sim.Millisecond {
		t.Fatal("Window() wrong")
	}
}

func TestTimeSeriesPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero window")
		}
	}()
	NewTimeSeries(0)
}

func TestSeqTrace(t *testing.T) {
	var tr SeqTrace
	tr.Record(sim.Second, 100)
	tr.Record(2*sim.Second, 200)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	s := tr.Samples()
	if s[0].Seq != 100 || s[1].At != 2*sim.Second {
		t.Fatalf("samples = %v", s)
	}
}

// TestSeqTraceChunks records past three chunks: order survives the chunk
// boundaries, Window bounds are inclusive across one, and FirstAfter
// finds nothing past the end.
func TestSeqTraceChunks(t *testing.T) {
	var tr SeqTrace
	const n = 3*seqChunkLen + 17
	for i := 0; i < n; i++ {
		tr.Record(sim.Time(i)*sim.Millisecond, uint64(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	all := tr.Samples()
	if len(all) != n {
		t.Fatalf("Samples has %d events, want %d", len(all), n)
	}
	for i, s := range all {
		if s.Seq != uint64(i) || s.At != sim.Time(i)*sim.Millisecond {
			t.Fatalf("Samples()[%d] = %+v", i, s)
		}
	}

	// [chunk end − 2, next chunk start + 2]: both bounds hit a sample.
	lo, hi := seqChunkLen-2, seqChunkLen+2
	w := tr.Window(sim.Time(lo)*sim.Millisecond, sim.Time(hi)*sim.Millisecond)
	if len(w) != hi-lo+1 || w[0].Seq != uint64(lo) || w[len(w)-1].Seq != uint64(hi) {
		t.Fatalf("Window = %v, want seq %d..%d inclusive", w, lo, hi)
	}
	if w := tr.Window(-2*sim.Millisecond, -sim.Millisecond); w != nil {
		t.Fatalf("empty Window = %v, want nil", w)
	}

	if s, ok := tr.FirstAfter(sim.Time(2*seqChunkLen) * sim.Millisecond); !ok || s.Seq != 2*seqChunkLen+1 {
		t.Fatalf("FirstAfter = %+v, %v", s, ok)
	}
	if s, ok := tr.FirstAfter(sim.Time(n-1) * sim.Millisecond); ok {
		t.Fatalf("FirstAfter past the end = %+v, want ok=false", s)
	}
}

// TestSeqTraceRecordAllocs pins chunked recording: N samples cost at
// most one allocation per 512-sample chunk, plus one.
func TestSeqTraceRecordAllocs(t *testing.T) {
	const n = 4*seqChunkLen + 1
	allocs := testing.AllocsPerRun(5, func() {
		var tr SeqTrace
		for i := 0; i < n; i++ {
			tr.Record(sim.Time(i), uint64(i))
		}
	})
	if max := float64((n+seqChunkLen-1)/seqChunkLen + 1); allocs > max {
		t.Fatalf("recording %d samples allocated %.0f times, want at most %.0f", n, allocs, max)
	}
}

// Property: sent/delivered/lost accounting is consistent for any
// interleaving.
func TestPropertyRecorderAccounting(t *testing.T) {
	f := func(events []bool) bool {
		r := NewRecorder()
		var sent, delivered uint64
		for i, deliver := range events {
			p := pkt(1, inet.ClassBestEffort, uint32(i), 0)
			r.Sent(p)
			sent++
			if deliver {
				r.Delivered(p, sim.Millisecond)
				delivered++
			}
		}
		if sent == 0 {
			return r.Flow(1) == nil || r.Flow(1).Sent == 0
		}
		fl := r.Flow(1)
		return fl.Sent == sent && fl.Delivered == delivered && fl.Lost() == sent-delivered
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: time-series bucket totals preserve the sum of added values.
func TestPropertyTimeSeriesConservation(t *testing.T) {
	f := func(adds []uint16) bool {
		ts := NewTimeSeries(10 * sim.Millisecond)
		var want float64
		for _, a := range adds {
			ts.Add(sim.Time(a)*sim.Millisecond, 1)
			want++
		}
		var got float64
		for _, v := range ts.Buckets() {
			got += v
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDelayPercentile(t *testing.T) {
	f := &FlowStats{}
	if f.DelayPercentile(99) != 0 {
		t.Fatal("empty percentile not zero")
	}
	for i := 1; i <= 100; i++ {
		f.Delays = append(f.Delays, DelaySample{Delay: sim.Time(i) * sim.Millisecond})
	}
	tests := []struct {
		p    float64
		want sim.Time
	}{
		{50, 50 * sim.Millisecond},
		{99, 99 * sim.Millisecond},
		{100, 100 * sim.Millisecond},
		{1, 1 * sim.Millisecond},
		{150, 100 * sim.Millisecond}, // clamped
		{0, 0},
	}
	for _, tt := range tests {
		if got := f.DelayPercentile(tt.p); got != tt.want {
			t.Errorf("DelayPercentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestJitter(t *testing.T) {
	f := &FlowStats{}
	if f.Jitter() != 0 {
		t.Fatal("jitter of empty flow not zero")
	}
	r := NewRecorder()
	for i, d := range []sim.Time{10, 20, 10, 30} {
		r.Delivered(pkt(1, inet.ClassBestEffort, uint32(i), 0), d*sim.Millisecond)
	}
	f = r.Flow(1)
	// |20-10| + |10-20| + |30-10| = 40ms over 3 intervals.
	if got := f.Jitter(); got != 40*sim.Millisecond/3 {
		t.Fatalf("Jitter = %v, want %v", got, 40*sim.Millisecond/3)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f2 := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		fl := &FlowStats{}
		var lo, hi sim.Time = sim.MaxTime, 0
		for _, r := range raw {
			d := sim.Time(r) * sim.Microsecond
			fl.Delays = append(fl.Delays, DelaySample{Delay: d})
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		prev := sim.Time(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := fl.DelayPercentile(p)
			if v < prev || v < lo || v > hi {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f2, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty summary not zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Fatalf("n=%d mean=%v", s.N(), s.Mean())
	}
	if s.StdDev() != 2 { // classic example: σ = 2
		t.Fatalf("stddev = %v, want 2", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

// Property: mean lies within [min, max] and stddev is non-negative.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		for _, v := range raw {
			s.Add(float64(v))
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9 && s.StdDev() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
