package machine

import (
	"testing"

	"dynasym/internal/profile"
	"dynasym/internal/topology"
)

// Duration must be allocation-free in steady state: the composed-profile
// cache removes every per-call profile construction, and TimeToDo's scan,
// composites included, allocates nothing. This is the allocation-regression gate for the
// machine layer of the simulation hot path.
func TestDurationAllocFree(t *testing.T) {
	_, m := newTX2()
	c := Cost{Ops: 1e6, Bytes: 1e5, SharedBytes: 1e4, WorkingSet: 1e5, SyncSeconds: 1e-6, WidthPenalty: 0.05}
	places := []topology.Place{
		{Leader: 0, Width: 1},
		{Leader: 0, Width: 2},
		{Leader: 2, Width: 4},
	}
	m.Duration(c, places[2], 0, NoJitter) // warm the cache
	allocs := testing.AllocsPerRun(200, func() {
		for i, pl := range places {
			m.Duration(c, pl, float64(i), NoJitter)
		}
	})
	if allocs != 0 {
		t.Fatalf("Duration allocated %.1f allocs/run on constant profiles, want 0", allocs)
	}
}

// The same must hold under time-varying profiles (the periodic scan path).
func TestDurationAllocFreePeriodic(t *testing.T) {
	_, m := newTX2()
	m.SetClusterFreq(1, profile.SquareWave(2.035e9, 345e6, 5, 5))
	m.SetCoreAvail(3, profile.SquareWave(1, 0.5, 1, 1))
	c := Cost{Ops: 1e8, Bytes: 1e6}
	pl := topology.Place{Leader: 2, Width: 4}
	m.Duration(c, pl, 0, NoJitter)
	allocs := testing.AllocsPerRun(200, func() {
		m.Duration(c, pl, 2.5, NoJitter)
	})
	if allocs != 0 {
		t.Fatalf("Duration allocated %.1f allocs/run on periodic profiles, want 0", allocs)
	}
}
