package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestSchedulerGoldenDeterminism is the golden determinism guard: a full
// figure scenario must render byte-identical output under the heap and
// calendar schedulers, under engine reuse (Reset between runs), and under
// the engine a scenario builds for itself. Any divergence means a scheduler broke the
// (at, seq) total-order contract or recycling leaked state.
func TestSchedulerGoldenDeterminism(t *testing.T) {
	render := func(engine *sim.Engine) string {
		return RunDelayTrace(DelayTraceParams{
			Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2,
			ARLinkDelay: 2 * sim.Millisecond, Engine: engine,
		}).Render()
	}
	heap := sim.NewEngine()
	cal := sim.NewCalendarEngine()

	want := render(heap)
	if got := render(cal); got != want {
		t.Fatalf("calendar scheduler diverged from heap:\n--- heap ---\n%s\n--- calendar ---\n%s", want, got)
	}
	if got := render(nil); got != want {
		t.Fatalf("default engine diverged from explicit heap engine:\n%s", got)
	}
	// Reused engines (the runner-pool scratch path) must replay identically.
	if got := render(heap); got != want {
		t.Fatal("reused heap engine diverged after Reset")
	}
	if got := render(cal); got != want {
		t.Fatal("reused calendar engine diverged after Reset")
	}

	// The SafetyNet data path (anchor bicast fan-out, NAR hold window,
	// selective drain) runs through the same engines: its renders — drop
	// trace with the overhead footer, and delay trace — must be equally
	// scheduler- and reuse-independent.
	renderSfn := func(engine *sim.Engine) string {
		drop := RunDropTrace(DropTraceParams{
			Scheme: core.SchemeSafetyNet, PoolSize: 40, Handoffs: 4, Engine: engine,
		}).Render()
		delay := RunDelayTrace(DelayTraceParams{
			Scheme: core.SchemeSafetyNet, PoolSize: 40, Engine: engine,
		}).Render()
		return drop + "\n" + delay
	}
	wantSfn := renderSfn(heap)
	if got := renderSfn(cal); got != wantSfn {
		t.Fatalf("safetynet: calendar scheduler diverged from heap:\n--- heap ---\n%s\n--- calendar ---\n%s", wantSfn, got)
	}
	if got := renderSfn(nil); got != wantSfn {
		t.Fatal("safetynet: default engine diverged from explicit heap engine")
	}
	if got := renderSfn(heap); got != wantSfn {
		t.Fatal("safetynet: reused heap engine diverged after Reset")
	}
	if got := renderSfn(cal); got != wantSfn {
		t.Fatal("safetynet: reused calendar engine diverged after Reset")
	}
}
