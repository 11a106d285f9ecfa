package sim

import (
	"math/rand"
	"testing"
)

// schedulers lists both queue implementations behind an Engine.
var schedulers = []struct {
	name string
	new  func() *Engine
}{{"heap", NewEngine}, {"calendar", NewCalendarEngine}}

// TestSchedulersAgree drives both engines through identical randomized
// schedule/cancel workloads and requires byte-identical fire sequences —
// the determinism contract that makes the scheduler selectable per run.
func TestSchedulersAgree(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		heapEng := NewEngine()
		calEng := NewCalendarEngine()

		var heapOrder, calOrder []int
		var heapRefs, calRefs []EventRef
		n := 200 + rng.Intn(400)
		for i := 0; i < n; i++ {
			// Mix of clustered and far-flung instants to force calendar
			// year scans, direct searches, and resizes.
			var at Time
			switch rng.Intn(4) {
			case 0:
				at = Time(rng.Intn(10)) // heavy ties
			case 1:
				at = Time(rng.Intn(1000))
			case 2:
				at = Time(rng.Int63n(int64(Second)))
			default:
				at = Time(rng.Int63n(int64(1000 * Second)))
			}
			id := i
			heapRefs = append(heapRefs, heapEng.At(at, func() { heapOrder = append(heapOrder, id) }))
			calRefs = append(calRefs, calEng.At(at, func() { calOrder = append(calOrder, id) }))
		}
		// Cancel a random subset (same subset on both engines).
		for i := range heapRefs {
			if rng.Intn(3) == 0 {
				heapEng.Cancel(heapRefs[i])
				calEng.Cancel(calRefs[i])
			}
		}
		if err := heapEng.RunAll(); err != nil {
			t.Fatal(err)
		}
		if err := calEng.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(heapOrder) != len(calOrder) {
			t.Fatalf("trial %d: heap fired %d events, calendar %d", trial, len(heapOrder), len(calOrder))
		}
		for i := range heapOrder {
			if heapOrder[i] != calOrder[i] {
				t.Fatalf("trial %d: fire order diverges at %d: heap=%d calendar=%d", trial, i, heapOrder[i], calOrder[i])
			}
		}
		if heapEng.Now() != calEng.Now() {
			t.Fatalf("trial %d: clocks diverge: heap=%v calendar=%v", trial, heapEng.Now(), calEng.Now())
		}
	}
}

// TestSchedulersAgreeOnline interleaves scheduling from inside handlers
// (the pattern real simulations follow) and checks both engines agree.
func TestSchedulersAgreeOnline(t *testing.T) {
	run := func(e *Engine) []int {
		rng := rand.New(rand.NewSource(42))
		var order []int
		id := 0
		var spawn func(depth int) Handler
		spawn = func(depth int) Handler {
			me := id
			id++
			return func() {
				order = append(order, me)
				if depth < 4 {
					k := rng.Intn(4)
					for j := 0; j < k; j++ {
						e.Schedule(Time(rng.Int63n(int64(Millisecond))), spawn(depth+1))
					}
				}
			}
		}
		for i := 0; i < 64; i++ {
			e.Schedule(Time(rng.Int63n(int64(Second))), spawn(0))
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	heapOrder := run(NewEngine())
	calOrder := run(NewCalendarEngine())
	if len(heapOrder) != len(calOrder) {
		t.Fatalf("heap fired %d events, calendar %d", len(heapOrder), len(calOrder))
	}
	for i := range heapOrder {
		if heapOrder[i] != calOrder[i] {
			t.Fatalf("fire order diverges at %d: heap=%d calendar=%d", i, heapOrder[i], calOrder[i])
		}
	}
}

// TestEventRefGenerationSafety is the satellite coverage for stale refs:
// schedule→fire→recycle→schedule into the same slot, then check the stale
// ref reports its own event's fate and Cancel through it is a no-op.
func TestEventRefGenerationSafety(t *testing.T) {
	for _, sc := range schedulers {
		t.Run(sc.name, func(t *testing.T) {
			e := sc.new()

			fired := false
			ref1 := e.Schedule(1, func() { fired = true })
			if !e.Step() || !fired {
				t.Fatal("first event did not fire")
			}
			if !ref1.Fired() || ref1.Cancelled() {
				t.Fatalf("ref1 after fire: Fired=%v Cancelled=%v, want true,false", ref1.Fired(), ref1.Cancelled())
			}

			// The free list guarantees the recycled slot is reused next.
			ref2 := e.Schedule(1, func() {})
			if ref2.ev != ref1.ev {
				t.Fatal("slot was not recycled into the next schedule")
			}
			if ref2.gen == ref1.gen {
				t.Fatal("recycled slot did not advance its generation")
			}

			// Stale ref still reports its own (fired) event, not the new
			// occupant's pending state.
			if !ref1.Fired() || ref1.Cancelled() {
				t.Fatalf("stale ref1: Fired=%v Cancelled=%v, want true,false", ref1.Fired(), ref1.Cancelled())
			}
			// Cancel through the stale ref must not touch the new occupant.
			e.Cancel(ref1)
			if ref2.Cancelled() {
				t.Fatal("Cancel via stale ref cancelled the slot's new occupant")
			}
			if e.Pending() != 1 {
				t.Fatalf("Pending = %d after stale Cancel, want 1", e.Pending())
			}

			// Now cancel the live event and recycle the slot a third time:
			// both stale refs keep reporting their own fates.
			e.Cancel(ref2)
			if !ref2.Cancelled() || ref2.Fired() {
				t.Fatalf("ref2 after cancel: Fired=%v Cancelled=%v, want false,true", ref2.Fired(), ref2.Cancelled())
			}
			e.Step() // pops + recycles the cancelled slot
			ref3 := e.Schedule(1, func() {})
			if ref3.ev != ref2.ev {
				t.Fatal("cancelled slot was not recycled")
			}
			if !ref1.Fired() || ref1.Cancelled() {
				t.Fatalf("2-stale ref1: Fired=%v Cancelled=%v, want true,false", ref1.Fired(), ref1.Cancelled())
			}
			if ref2.Fired() || !ref2.Cancelled() {
				t.Fatalf("stale ref2: Fired=%v Cancelled=%v, want false,true", ref2.Fired(), ref2.Cancelled())
			}
			if ref3.Fired() || ref3.Cancelled() {
				t.Fatal("fresh ref3 should be pending")
			}
		})
	}
}

// TestEventRefFateDepth recycles one slot through many generations and
// checks fates stay correct across the full 64-generation memory.
func TestEventRefFateDepth(t *testing.T) {
	e := NewEngine()
	type gen struct {
		ref       EventRef
		cancelled bool
	}
	var hist []gen
	var slot *event
	for i := 0; i < 70; i++ {
		ref := e.Schedule(1, func() {})
		if slot == nil {
			slot = ref.ev
		} else if ref.ev != slot {
			t.Fatal("free list did not reuse the single slot")
		}
		cancelled := i%3 == 0
		if cancelled {
			e.Cancel(ref)
		}
		e.Step() // fires or collects the slot, recycling it
		hist = append(hist, gen{ref, cancelled})
	}
	for i, g := range hist {
		age := len(hist) - 1 - i // generations completed after this one
		if age >= fateBits {
			continue // beyond fate memory; reports are best-effort
		}
		if g.cancelled {
			if g.ref.Fired() || !g.ref.Cancelled() {
				t.Fatalf("gen %d (cancelled): Fired=%v Cancelled=%v", i, g.ref.Fired(), g.ref.Cancelled())
			}
		} else {
			if !g.ref.Fired() || g.ref.Cancelled() {
				t.Fatalf("gen %d (fired): Fired=%v Cancelled=%v", i, g.ref.Fired(), g.ref.Cancelled())
			}
		}
	}
}

// TestEngineReset checks a reset engine replays a workload identically to a
// fresh one, without consulting wall time or leaking prior state.
func TestEngineReset(t *testing.T) {
	for _, sc := range schedulers {
		t.Run(sc.name, func(t *testing.T) {
			run := func(e *Engine) []int {
				var order []int
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < 500; i++ {
					id := i
					ref := e.Schedule(Time(rng.Int63n(int64(Second))), func() { order = append(order, id) })
					if rng.Intn(4) == 0 {
						e.Cancel(ref)
					}
				}
				if err := e.RunAll(); err != nil {
					t.Fatal(err)
				}
				return order
			}
			e := sc.new()
			first := run(e)

			// Leave junk queued, then reset mid-flight.
			pending := e.Schedule(5, func() { t.Fatal("event survived Reset") })
			e.Reset()
			if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 {
				t.Fatalf("after Reset: now=%v pending=%d processed=%d", e.Now(), e.Pending(), e.Processed())
			}
			if pending.Fired() {
				t.Fatal("reset-discarded event reports fired")
			}
			second := run(e)
			if len(first) != len(second) {
				t.Fatalf("replay length %d != %d", len(second), len(first))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("replay diverges at %d: %d != %d", i, second[i], first[i])
				}
			}
		})
	}
}

// TestCalendarFarFuture exercises the direct-search fallback: a handful of
// events separated by enormous gaps.
func TestCalendarFarFuture(t *testing.T) {
	e := NewCalendarEngine()
	var order []int
	ats := []Time{0, 1, 1000 * Second, 2000 * Second, MaxTime / 2, MaxTime - 1}
	for i := len(ats) - 1; i >= 0; i-- {
		id := i
		e.At(ats[i], func() { order = append(order, id) })
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("fire order %v, want ascending", order)
		}
	}
}

// TestCalendarEarlierPush checks that scheduling an event earlier than an
// already-peeked minimum rewinds the scan correctly.
func TestCalendarEarlierPush(t *testing.T) {
	e := NewCalendarEngine()
	var order []int
	e.At(100*Millisecond, func() { order = append(order, 2) })
	// Peek via Run to a horizon before the event, priming the scan cache.
	if err := e.Run(Millisecond); err != nil {
		t.Fatal(err)
	}
	e.At(50*Millisecond, func() { order = append(order, 1) })
	e.At(2*Millisecond, func() { order = append(order, 0) })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fire order %v, want [0 1 2]", order)
	}
}

// TestZeroAllocHotPath enforces the steady-state allocation ceilings from
// the acceptance criteria: Schedule, Step, and Cancel must not allocate
// once the free list and queue capacity are warm.
func TestZeroAllocHotPath(t *testing.T) {
	for _, sc := range schedulers {
		t.Run(sc.name, func(t *testing.T) {
			e := sc.new()
			fn := func() {}
			// Warm-up: grow the free list, queue capacity, and calendar
			// buckets past anything the measured loop needs.
			for i := 0; i < 4096; i++ {
				e.Schedule(Time(i%97)*Microsecond, fn)
			}
			for e.Step() {
			}

			var tick Time
			allocs := testing.AllocsPerRun(200, func() {
				for i := 0; i < 16; i++ {
					tick += Microsecond
					keep := e.At(tick, fn)
					dead := e.At(tick+Microsecond, fn)
					e.Cancel(dead)
					_ = keep
				}
				for e.Step() {
				}
			})
			if allocs != 0 {
				t.Fatalf("%s Schedule/Cancel/Step steady state allocates %.1f times per run, want 0", sc.name, allocs)
			}
		})
	}
}

// TestTimerResetZeroAlloc: re-arming a timer is part of the retransmission
// hot path and must not allocate either.
func TestTimerResetZeroAlloc(t *testing.T) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	// Warm-up.
	for i := 0; i < 1024; i++ {
		tm.Reset(Millisecond)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			tm.Reset(Millisecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("Timer.Reset steady state allocates %.1f times per run, want 0", allocs)
	}
}
