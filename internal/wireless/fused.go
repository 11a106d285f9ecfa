package wireless

import (
	"sync/atomic"

	"repro/internal/sim"
)

// The fused air transmit path (DESIGN.md §13) mirrors netsim's fused
// wired hop (§12) on the radio: instead of scheduling a txDone event when
// a frame finishes serializing and an arrival event one air delay later,
// the transmitter keeps an analytic busyUntil clock and schedules a
// single pre-bound delivery event per frame at
//
//	max(now, busyUntil) + serialization + AirDelay.
//
// Queue occupancy, drop decisions, and counters are reconstructed on
// demand by lazily draining a departure ring of per-frame analytic
// records. Every delivery is pinned with sim.AtPinned at the virtual key
// the classic arrival event would have carried, so equal-instant ordering
// — and therefore every figure byte — is identical in both modes.
//
// One degenerate case is excluded: a zero-bandwidth radio serializes every
// frame instantly, so the classic txDone chain collapses into a single
// instant and drains through nested same-instant firings whose sequence
// allocation interleaves with other transmitters' chains. Phantom txDones
// never fire, so no sequence numbers exist at those positions and the
// interleave cannot be reproduced analytically; radios constructed with
// BandwidthBPS == 0 therefore always take the classic path.

// classicAir selects the classic two-event path for radios created from
// now on; its zero value keeps the fused path. Radios latch the mode at
// construction.
var classicAir atomic.Bool

// SetFusedAir switches the default air transmit path for radios created
// afterwards and returns the previous setting.
func SetFusedAir(on bool) bool { return !classicAir.Swap(!on) }

// FusedAir reports the current default air transmit path.
func FusedAir() bool { return !classicAir.Load() }

// airTxEntry is the analytic record of one frame accepted by a fused
// transmitter: its departure instant (end of serialization) and the
// virtual key of the txDone event the classic path would have fired then.
// The phantom key makes same-instant reads (QueueLen at the departure
// instant) and the pinned delivery event sort exactly as the classic
// two-event machinery would.
type airTxEntry struct {
	dep    sim.Time
	pvins  sim.Time
	pvins2 sim.Time
	pvseq2 uint64
	pseq   uint64
	// ref is the frame's pinned delivery event, kept so the station can
	// cancel not-yet-started frames on a NIC reset. Unused by the AP.
	ref sim.EventRef
}

// airClock is the analytic transmit state shared by the AP's downlink and
// the station's uplink: the busyUntil clock, the lazily drained departure
// ring, and the retired-frame counter.
type airClock struct {
	busyUntil sim.Time
	ring      []airTxEntry
	ringHead  int
	sent      uint64
}

// occupancy returns the number of frames admitted but not yet departed
// (the serializing frame plus the queue behind it). Call drain first.
func (c *airClock) occupancy() int { return len(c.ring) - c.ringHead }

// drain retires ring entries whose phantom txDone has passed, advancing
// sent. A frame departing exactly now counts only if its phantom key
// precedes the currently firing event, matching the classic event order.
func (c *airClock) drain(e *sim.Engine) {
	h, n := c.ringHead, len(c.ring)
	if h == n {
		return
	}
	now := e.Now()
	for h < n {
		ent := &c.ring[h]
		if ent.dep > now || (ent.dep == now && !phantomFired(e, ent)) {
			break
		}
		c.sent++
		h++
	}
	// Reclaim ring storage: reset when empty, compact when the dead
	// prefix dominates, so a saturated radio stays O(backlog).
	if h == len(c.ring) {
		c.ring = c.ring[:0]
		h = 0
	} else if h >= 64 && h*2 >= len(c.ring) {
		kept := copy(c.ring, c.ring[h:])
		c.ring = c.ring[:kept]
		h = 0
	}
	c.ringHead = h
}

// push admits a frame of the given size, computes its serialization
// window analytically, and appends its ring entry. It returns the
// serialization start, the departure instant, and the new entry's index
// (valid until the next append). The phantom-key lineage mirrors the
// classic path: a backlogged frame's txDone would have been scheduled by
// its predecessor's txDone, an idle frame's by the currently firing event.
func (c *airClock) push(e *sim.Engine, size int, bps int64) (start, dep sim.Time, idx int) {
	now := e.Now()
	var txTime sim.Time
	if bps > 0 {
		txTime = sim.Time(int64(size) * 8 * int64(sim.Second) / bps)
	}
	var ent airTxEntry
	start = now
	if c.occupancy() > 0 {
		prev := &c.ring[len(c.ring)-1]
		start = c.busyUntil
		ent.pvins2, ent.pvseq2, ent.pseq = prev.pvins, prev.pseq, prev.pseq
	} else if fv, _, _, fseq, firing := e.FiringKey(); firing {
		ent.pvins2, ent.pvseq2 = fv, fseq
		ent.pseq = e.NextSeq()
	} else {
		ent.pvins2, ent.pvseq2 = now, e.NextSeq()
		ent.pseq = e.NextSeq()
	}
	dep = start + txTime
	ent.dep, ent.pvins = dep, start
	c.busyUntil = dep
	c.ring = append(c.ring, ent)
	return start, dep, len(c.ring) - 1
}

// phantomFired reports whether ent's phantom txDone sorts before the
// event the engine is currently firing — i.e. whether the classic path
// would already have processed that txDone at this instant.
func phantomFired(e *sim.Engine, ent *airTxEntry) bool {
	fv, fv2, fs2, fseq, firing := e.FiringKey()
	if !firing {
		return true
	}
	if ent.pvins != fv {
		return ent.pvins < fv
	}
	if ent.pvins2 != fv2 {
		return ent.pvins2 < fv2
	}
	if ent.pvseq2 != fs2 {
		return ent.pvseq2 < fs2
	}
	return ent.pseq < fseq
}
