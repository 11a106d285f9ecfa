// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// events. Events scheduled for the same instant fire in the order they were
// scheduled (stable FIFO tie-break), which makes every simulation in this
// repository reproducible bit-for-bit.
//
// Two queue implementations are available behind the same Engine API: an
// inlined 4-ary min-heap (the default) and an ns-2-style calendar queue
// (NewCalendarEngine) whose enqueue/dequeue cost stays O(1) when the event
// population is well spread. Both honor the identical total order
// (see eventLess), so a simulation produces byte-identical results under
// either. For events scheduled through Schedule/At that order is exactly
// the historical (at, seq) FIFO rule; AtPinned additionally lets a caller
// place an event at an explicit position inside an instant, so an
// analytically computed event can land precisely where a classic
// event-driven chain would have inserted it (see internal/netsim's fused
// links).
//
// The hot path is allocation-free in steady state: fired and cancelled
// events are recycled through a free list, and EventRefs carry a
// generation counter so a stale reference can never touch the slot's new
// occupant.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a virtual time instant, measured in nanoseconds since the start of
// the simulation. It is deliberately distinct from time.Time: simulations
// never consult the wall clock.
type Time int64

// Common time unit helpers, mirroring the time package.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual instant.
const MaxTime = Time(math.MaxInt64)

// Duration converts a time.Duration into virtual time units.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns the instant as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the instant as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the instant as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Handler is a scheduled callback. It runs with the engine clock set to the
// event's instant.
type Handler func()

// event is a single queue entry. Events are recycled through the engine's
// free list; gen counts the recycles so stale EventRefs can detect that
// their event is gone (and look its fate up in the fate shift register).
type event struct {
	at  Time
	seq uint64 // insertion order, breaks ties deterministically
	// (vins, vins2, vseq2) position the event inside its instant ahead of
	// the seq tie-break: vins is the virtual instant the event was
	// inserted at, and (vins2, vseq2) identify the inserting context (the
	// (vins, seq) of the event whose handler performed the insertion).
	// For events scheduled via Schedule/At these are derived so that the
	// total order collapses to the historical (at, seq) FIFO rule — see
	// eventLess. AtPinned sets them explicitly.
	vins  Time
	vins2 Time
	vseq2 uint64
	fn    Handler
	gen   uint64 // incremented every time the slot is recycled
	// fate remembers how past occupants of this slot ended: bit k holds 1
	// if generation gen-1-k fired (0 if it was cancelled). It lets a ref
	// up to 64 recycles stale still report its own event's outcome.
	fate   uint64
	fired  bool
	cancel bool
	// next chains events inside a calendar-queue bucket (intrusive list,
	// nil outside the calendar). Unused by the heap scheduler.
	next *event
}

// eventLess is the engine's total event order: earlier instant first, then
// insertion instant, then inserting context, then scheduling order. Both
// queue implementations use exactly this predicate, which is what makes
// them interchangeable bit-for-bit.
//
// For events scheduled only through Schedule/At the extended key is a pure
// refinement of the historical (at, seq) rule — it never reorders them.
// Proof sketch (induction over instants): within one instant, events fire
// in key order; an event inserted by firing F gets vins = now and
// (vins2, vseq2) = (F.vins, F.seq), and since firings proceed in
// nondecreasing (vins, seq) order (the hypothesis), consecutive insertions
// carry nondecreasing (vins, vins2, vseq2) — so among equal (at, vins) the
// extended comparison still falls through to seq. Events inserted outside
// any firing get (vins2, vseq2) = (now, own seq), which slots after every
// same-instant firing context. The extension only matters for AtPinned
// events, which use it to sort exactly where an equivalent event-driven
// insertion would have.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.vins != b.vins {
		return a.vins < b.vins
	}
	if a.vins2 != b.vins2 {
		return a.vins2 < b.vins2
	}
	if a.vseq2 != b.vseq2 {
		return a.vseq2 < b.vseq2
	}
	return a.seq < b.seq
}

// EventRef identifies a scheduled event so it can be cancelled. The zero
// value is valid and reports neither fired nor cancelled.
type EventRef struct {
	ev  *event
	gen uint64
}

// fateBits is how many completed generations a slot's fate register holds.
const fateBits = 64

// Cancelled reports whether the event was cancelled before firing. The
// contract: exactly one of "fired" and "cancelled" eventually holds for
// every scheduled event. An event that already ran reports false even if
// Cancel was called on it afterwards (the late Cancel is a no-op), so
// Cancelled never claims that work which actually happened was prevented.
//
// The report stays correct even after the event's slot has been recycled
// and rescheduled (up to 64 recycles back); a ref staler than that
// conservatively reports not-cancelled.
func (r EventRef) Cancelled() bool {
	ev := r.ev
	if ev == nil {
		return false
	}
	if ev.gen == r.gen {
		return ev.cancel
	}
	if age := ev.gen - r.gen; age <= fateBits {
		return ev.fate>>(age-1)&1 == 0
	}
	return false
}

// Fired reports whether the event's handler has run, with the same
// staleness guarantees as Cancelled.
func (r EventRef) Fired() bool {
	ev := r.ev
	if ev == nil {
		return false
	}
	if ev.gen == r.gen {
		return ev.fired
	}
	if age := ev.gen - r.gen; age <= fateBits {
		return ev.fate>>(age-1)&1 == 1
	}
	// Fate memory exhausted: the event certainly completed, and events
	// overwhelmingly complete by firing (cancellations are explicit, so
	// their owner already knows). Report the likely outcome.
	return true
}

// scheduler is the queue strategy behind an Engine. Both implementations
// order events by eventLess and tolerate lazily-cancelled entries (the
// engine skips and recycles them on pop, or in bulk via sweep).
type scheduler interface {
	// push enqueues an event.
	push(ev *event)
	// peek returns the earliest queued event without removing it, or nil.
	peek() *event
	// pop removes and returns the earliest queued event, or nil.
	pop() *event
	// size returns the number of queued events, including
	// lazily-cancelled ones awaiting collection.
	size() int
	// sweep removes every cancelled event, handing each to recycle.
	sweep(recycle func(*event))
	// reset empties the queue (recycling every entry) but keeps the
	// allocated capacity for reuse.
	reset(recycle func(*event))
}

// ErrStopped is returned by Run when Stop was called before the horizon.
var ErrStopped = errors.New("sim: engine stopped")

// eventBlock is how many events one free-list refill allocates. Chunked
// allocation keeps cold-start allocation counts low; in steady state the
// free list makes Schedule/Step allocation-free.
const eventBlock = 128

// compactMin is the lazy-deletion floor: a sweep is only considered once
// at least this many cancelled events are queued.
const compactMin = 64

// Engine is the discrete-event scheduler. The zero value is not usable; call
// NewEngine (or NewCalendarEngine).
type Engine struct {
	now     Time
	sched   scheduler
	seq     uint64
	stopped bool
	// processed counts events that have fired, for diagnostics.
	processed uint64
	// live counts scheduled, not-yet-fired, not-cancelled events.
	live int
	// lazy counts cancelled events still occupying queue slots.
	lazy int
	// free is the recycled-event stack feeding At.
	free []*event
	// recycleFn is the pre-bound recycle method value handed to the
	// scheduler's sweep/reset, so compaction never allocates a closure.
	recycleFn func(*event)
	// Firing context: the full ordering key of the event whose handler is
	// currently running inside Step. At stamps inserted events with it,
	// and FiringKey exposes it so analytic fast paths (netsim's fused
	// links) can resolve equal-instant ties exactly as the event-driven
	// code would have.
	firing   bool
	curVins  Time
	curVins2 Time
	curVseq2 uint64
	curSeq   uint64
}

// NewEngine returns an engine with its clock at zero, backed by the
// inlined 4-ary min-heap.
func NewEngine() *Engine { return newEngine(new(heapQueue)) }

// NewCalendarEngine returns an engine backed by the calendar queue. Both
// queues honor the same total event order, so results are identical; the
// scenario specs give each runner worker one calendar engine to reuse
// across replicas.
func NewCalendarEngine() *Engine { return newEngine(newCalendarQueue()) }

func newEngine(q scheduler) *Engine {
	e := &Engine{sched: q}
	e.recycleFn = e.recycle
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled (cancelled
// events awaiting lazy collection are not counted).
func (e *Engine) Pending() int { return e.live }

// alloc takes an event slot from the free list, refilling it block-wise
// from one backing array when empty.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	block := make([]event, eventBlock)
	for i := eventBlock - 1; i >= 1; i-- {
		e.free = append(e.free, &block[i])
	}
	return &block[0]
}

// recycle retires an event slot: its outcome is pushed into the fate shift
// register, the generation advances (invalidating extant refs), and the
// slot returns to the free list.
func (e *Engine) recycle(ev *event) {
	var bit uint64
	if ev.fired {
		bit = 1
	}
	ev.fate = ev.fate<<1 | bit
	ev.gen++
	ev.fn = nil
	ev.fired = false
	ev.cancel = false
	e.free = append(e.free, ev)
}

// Schedule runs fn after the given delay. A negative delay is treated as
// zero (the event fires at the current instant, after already-queued events
// for that instant).
func (e *Engine) Schedule(delay Time, fn Handler) EventRef {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at the given absolute instant. Instants in the past are clamped
// to the current time.
func (e *Engine) At(at Time, fn Handler) EventRef {
	if fn == nil {
		panic("sim: At called with nil handler")
	}
	if at < e.now {
		at = e.now
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.vins = e.now
	if e.firing {
		ev.vins2 = e.curVins
		ev.vseq2 = e.curSeq
	} else {
		ev.vins2 = e.now
		ev.vseq2 = ev.seq
	}
	ev.fn = fn
	e.seq++
	e.sched.push(ev)
	e.live++
	return EventRef{ev: ev, gen: ev.gen}
}

// AtPinned runs fn at the given absolute instant with an explicitly pinned
// equal-instant position: vins is the instant an equivalent event-driven
// insertion would have happened at, and (vins2, vseq2) that insertion's
// context (see eventLess). netsim's fused links and wireless's fused air
// transmit use it to schedule a delivery at Send time that sorts exactly
// where the classic txDone-then-deliver chain would have placed it. Instants in the past are
// clamped to the current time, and the pin components are clamped to stay
// internally consistent (vins <= at, vins2 <= vins).
func (e *Engine) AtPinned(at, vins, vins2 Time, vseq2 uint64, fn Handler) EventRef {
	if fn == nil {
		panic("sim: AtPinned called with nil handler")
	}
	if at < e.now {
		at = e.now
	}
	if vins > at {
		vins = at
	}
	if vins2 > vins {
		vins2 = vins
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.vins = vins
	ev.vins2 = vins2
	ev.vseq2 = vseq2
	ev.fn = fn
	e.seq++
	e.sched.push(ev)
	e.live++
	return EventRef{ev: ev, gen: ev.gen}
}

// FiringKey returns the equal-instant ordering key (vins, vins2, vseq2,
// seq) of the event whose handler is currently running, and whether a
// handler is running at all. Analytic fast paths compare pending phantom
// events against this key to decide whether the event-driven equivalent
// would already have fired at the current instant.
func (e *Engine) FiringKey() (vins, vins2 Time, vseq2, seq uint64, firing bool) {
	return e.curVins, e.curVins2, e.curVseq2, e.curSeq, e.firing
}

// NextSeq returns the sequence number the next scheduled event will be
// assigned. Analytic fast paths snapshot it to reproduce the sequence slot
// an equivalent event-driven insertion would have consumed at this point.
func (e *Engine) NextSeq() uint64 { return e.seq }

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op: a fired event stays
// "fired", not "cancelled" (see EventRef.Cancelled). The queue slot is
// deleted lazily: it is marked and skipped on pop, and bulk-compacted once
// cancelled events dominate the queue, so Cancel itself is O(1).
func (e *Engine) Cancel(ref EventRef) {
	ev := ref.ev
	if ev == nil || ev.gen != ref.gen || ev.fired || ev.cancel {
		return
	}
	ev.cancel = true
	e.live--
	e.lazy++
	if e.lazy >= compactMin && e.lazy*2 > e.sched.size() {
		e.lazy = 0
		e.sched.sweep(e.recycleFn)
	}
}

// Stop makes the current Run call return after the in-flight event handler
// completes. Calling Stop while no Run is in progress is not lost: the
// pending stop is honored (and consumed) by the next Run call, which
// returns ErrStopped without processing any events.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event and advances the clock to its
// instant. It reports whether an event fired.
func (e *Engine) Step() bool {
	for {
		ev := e.sched.pop()
		if ev == nil {
			return false
		}
		if ev.cancel {
			if e.lazy > 0 {
				e.lazy--
			}
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.processed++
		e.live--
		ev.fired = true
		fn := ev.fn
		e.firing = true
		e.curVins, e.curVins2, e.curVseq2, e.curSeq = ev.vins, ev.vins2, ev.vseq2, ev.seq
		fn()
		e.firing = false
		e.recycle(ev)
		return true
	}
}

// Run processes events until the queue is empty or the clock would pass the
// horizon. Events scheduled exactly at the horizon still fire. It returns
// ErrStopped if Stop was called, otherwise nil. A Stop issued before Run
// (including one left over from a handler that fired after its Run call
// already returned) is honored immediately: Run consumes it and returns
// ErrStopped without firing any event, so a stop is never silently lost.
func (e *Engine) Run(until Time) error {
	for {
		if e.stopped {
			e.stopped = false
			return ErrStopped
		}
		next := e.sched.peek()
		if next == nil {
			break
		}
		if next.cancel {
			e.sched.pop()
			if e.lazy > 0 {
				e.lazy--
			}
			e.recycle(next)
			continue
		}
		if next.at > until {
			// Leave the event queued; advance the clock to the horizon so
			// Now() reflects how far the simulation progressed.
			e.now = until
			return nil
		}
		e.Step()
	}
	if until != MaxTime && e.now < until {
		e.now = until
	}
	return nil
}

// RunAll processes events until the queue drains or Stop is called.
func (e *Engine) RunAll() error { return e.Run(MaxTime) }

// NextAt returns the instant of the earliest live pending event, without
// firing it. Cancelled events encountered at the head of the queue are
// collected on the way (they would be skipped by Run anyway), so the
// reported instant is exact, not an underestimate. The second result is
// false when no live event is queued. Conservative parallel runners use
// this to compute the global epoch horizon.
func (e *Engine) NextAt() (Time, bool) {
	for {
		next := e.sched.peek()
		if next == nil {
			return 0, false
		}
		if next.cancel {
			e.sched.pop()
			if e.lazy > 0 {
				e.lazy--
			}
			e.recycle(next)
			continue
		}
		return next.at, true
	}
}

// Reset returns the engine to its initial state — clock at zero, empty
// queue, sequence counter rewound — while keeping the event free list and
// queue capacity, so a worker can run many simulation replicas without
// re-paying allocation warm-up. Events still queued are recycled as
// cancelled; refs into the previous run become stale and report their own
// event's fate per the EventRef contract. Because the sequence counter
// restarts at zero, a reset engine schedules events in exactly the order a
// fresh engine would: replica results are identical either way.
func (e *Engine) Reset() {
	e.sched.reset(e.recycleFn)
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.stopped = false
	e.live = 0
	e.lazy = 0
	e.firing = false
}
