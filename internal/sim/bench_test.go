package sim

import "testing"

// BenchmarkScheduleAndRun measures raw engine throughput: schedule-heavy
// workloads in the network simulator are bounded by this loop.
func BenchmarkScheduleAndRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%1000)*Microsecond, func() {})
		if i%1024 == 1023 {
			if err := e.RunAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerReset measures the cancel-and-rearm path protocol timers
// exercise constantly.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(Second)
	}
	tm.Stop()
}

// BenchmarkSchedulerChurn holds a steady window of pending events and
// replaces one per operation — the hold-pattern churn both schedulers see
// in a running simulation — so the heap and calendar implementations can
// be compared head to head.
func BenchmarkSchedulerChurn(b *testing.B) {
	for _, sc := range schedulers {
		b.Run(sc.name, func(b *testing.B) {
			e := sc.new()
			rng := NewRNG(1)
			fn := func() {}
			const window = 4096
			for i := 0; i < window; i++ {
				e.Schedule(Time(rng.Intn(1000))*Microsecond, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(Time(1+rng.Intn(1000))*Microsecond, fn)
				e.Step()
			}
			b.StopTimer()
			if err := e.RunAll(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRetransmissionCancel models the signaling retransmission-timer
// pattern: batches of timers armed together of which 90% are cancelled
// before firing (the exchange succeeded), exercising the lazy-delete
// Cancel and the compaction sweep.
func BenchmarkRetransmissionCancel(b *testing.B) {
	for _, sc := range schedulers {
		b.Run(sc.name, func(b *testing.B) {
			e := sc.new()
			fn := func() {}
			refs := make([]EventRef, 0, 128)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refs = refs[:0]
				for j := 0; j < 100; j++ {
					refs = append(refs, e.Schedule(100*Millisecond, fn))
				}
				for j, ref := range refs {
					if j%10 != 0 { // 90% cancelled before their deadline
						e.Cancel(ref)
					}
				}
				if err := e.RunAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
