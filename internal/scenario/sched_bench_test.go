package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// BenchmarkDelayTraceBySched compares the two event schedulers on a full
// figure workload (reused engine, so allocation warm-up is excluded).
func BenchmarkDelayTraceBySched(b *testing.B) {
	for _, sc := range []struct {
		name string
		new  func() *sim.Engine
	}{{"heap", sim.NewEngine}, {"calendar", sim.NewCalendarEngine}} {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			engine := sc.new()
			for i := 0; i < b.N; i++ {
				RunDelayTrace(DelayTraceParams{
					Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2,
					ARLinkDelay: 2 * sim.Millisecond, Engine: engine,
				})
			}
		})
	}
}
