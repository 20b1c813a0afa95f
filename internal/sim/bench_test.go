package sim_test

import (
	"testing"

	"dynasym/internal/sim"
)

// chain keeps `width` concurrent event chains alive until the budget is
// consumed, so the heap holds a realistic number of pending events while the
// benchmark measures steady-state push/pop/dispatch cost.
const benchChainWidth = 256

// rescheduler is a typed-event receiver that keeps its chain alive until the
// shared budget is spent — the steady-state pattern of simrt's step events.
type rescheduler struct {
	e    *sim.Engine
	left int
}

func (r *rescheduler) HandleEvent(kind sim.EventKind, at float64) {
	if r.left > 0 {
		r.left--
		r.e.AfterEvent(1e-6, r, kind)
	}
}

// BenchmarkEngineTypedEvents measures the allocation-free dispatch path
// (Engine.AtEvent against a long-lived handler), the simulated runtime's hot
// loop.
func BenchmarkEngineTypedEvents(b *testing.B) {
	e := sim.New()
	r := &rescheduler{e: e, left: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < benchChainWidth && r.left > 0; i++ {
		r.left--
		e.AtEvent(float64(i)*1e-9, r, 0)
	}
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
