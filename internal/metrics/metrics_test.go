package metrics

import (
	"math"
	"testing"

	"dynasym/internal/topology"
)

// taskDone records an execution the way the runtime does: place id resolved
// by the caller.
func taskDone(c *Collector, pl topology.Place, high bool, iter int, start, finish float64) {
	c.TaskDoneID(c.Platform().PlaceID(pl), pl, high, iter, start, finish)
}

func TestThroughputAndMakespan(t *testing.T) {
	c := NewCollector(topology.TX2())
	for i := 0; i < 10; i++ {
		taskDone(c, topology.Place{Leader: 0, Width: 1}, false, -1, float64(i), float64(i)+0.5)
	}
	c.SetMakespan(10)
	if c.TasksDone() != 10 {
		t.Fatalf("tasks = %d", c.TasksDone())
	}
	if got := c.Throughput(); got != 1 {
		t.Fatalf("throughput = %g, want 1", got)
	}
	if c.Makespan() != 10 {
		t.Fatalf("makespan = %g", c.Makespan())
	}
}

func TestCoreBusyAccumulatesPerMember(t *testing.T) {
	c := NewCollector(topology.TX2())
	taskDone(c, topology.Place{Leader: 2, Width: 4}, false, -1, 0, 2)
	busy := c.CoreBusy()
	for core := 2; core <= 5; core++ {
		if busy[core] != 2 {
			t.Fatalf("core %d busy %g, want 2", core, busy[core])
		}
	}
	if busy[0] != 0 || busy[1] != 0 {
		t.Fatal("non-member cores accumulated time")
	}
}

func TestPlaceHistogram(t *testing.T) {
	c := NewCollector(topology.TX2())
	hi := topology.Place{Leader: 1, Width: 1}
	lo := topology.Place{Leader: 2, Width: 2}
	for i := 0; i < 3; i++ {
		taskDone(c, hi, true, -1, 0, 1)
	}
	taskDone(c, lo, false, -1, 0, 1)
	all := c.PlaceHistogram(false)
	if len(all) != 2 || all[0].Place != hi || all[0].Count != 3 {
		t.Fatalf("all hist = %+v", all)
	}
	if math.Abs(all[0].Frac-0.75) > 1e-12 {
		t.Fatalf("frac = %g", all[0].Frac)
	}
	high := c.PlaceHistogram(true)
	if len(high) != 1 || high[0].Count != 3 || high[0].Frac != 1 {
		t.Fatalf("high hist = %+v", high)
	}
}

func TestIterStats(t *testing.T) {
	c := NewCollector(topology.TX2())
	taskDone(c, topology.Place{Leader: 0, Width: 1}, false, 1, 2.0, 2.5)
	taskDone(c, topology.Place{Leader: 1, Width: 1}, false, 1, 1.5, 2.2)
	taskDone(c, topology.Place{Leader: 0, Width: 1}, false, 0, 0.0, 1.0)
	st := c.IterStats()
	if len(st) != 2 || st[0].Iter != 0 || st[1].Iter != 1 {
		t.Fatalf("iters = %+v", st)
	}
	if st[1].Start != 1.5 || st[1].End != 2.5 || st[1].Tasks != 2 {
		t.Fatalf("iter 1 = %+v", st[1])
	}
	if st[1].Count(c.Platform().PlaceID(topology.Place{Leader: 0, Width: 1})) != 1 {
		t.Fatal("iter place counts wrong")
	}
}

// IterStats hands the place counts out as ID-sorted pairs carved from one
// backing slice per run — whatever order the places were first used in —
// and appending to one iteration's pairs must not run into the next's.
func TestIterStatsPlacesSortedSharedBacking(t *testing.T) {
	c := NewCollector(topology.TX2())
	topo := c.Platform()
	wide, lead2, lead0 := topology.Place{Leader: 2, Width: 4}, topology.Place{Leader: 2, Width: 1}, topology.Place{Leader: 0, Width: 1}
	for _, pl := range []topology.Place{wide, lead0, lead2, wide} { // iteration 0: highest id first
		taskDone(c, pl, false, 0, 0, 1)
	}
	taskDone(c, lead2, false, 1, 1, 2)
	taskDone(c, lead0, false, 1, 1, 2)
	st := c.IterStats()
	if len(st) != 2 {
		t.Fatalf("iters = %+v", st)
	}
	want0 := []PlaceCount{{topo.PlaceID(lead0), 1}, {topo.PlaceID(lead2), 1}, {topo.PlaceID(wide), 2}}
	if len(st[0].Places) != len(want0) {
		t.Fatalf("iter 0 places = %+v, want %+v", st[0].Places, want0)
	}
	for i, pc := range st[0].Places {
		if pc != want0[i] {
			t.Fatalf("iter 0 places = %+v, want %+v", st[0].Places, want0)
		}
	}
	if st[0].Count(topo.PlaceID(wide)) != 2 || st[1].Count(topo.PlaceID(wide)) != 0 {
		t.Fatalf("Count: iter 0 %+v, iter 1 %+v", st[0].Places, st[1].Places)
	}
	first := st[1].Places[0]
	_ = append(st[0].Places, PlaceCount{ID: 99, N: 99})
	if st[1].Places[0] != first {
		t.Fatal("appending to iteration 0's pairs overwrote iteration 1's")
	}
}

// The readout is two allocations per run — the stats and the shared pair
// backing — however many iterations the run had (it was a map per
// iteration, 35 % of a cold synthetic cell's allocations).
func TestIterStatsAllocs(t *testing.T) {
	c := NewCollector(topology.TX2())
	for iter := 0; iter < 40; iter++ {
		for core := 0; core < 6; core++ {
			taskDone(c, topology.Place{Leader: core, Width: 1}, false, iter, float64(iter), float64(iter)+1)
		}
	}
	var st []IterStat
	allocs := testing.AllocsPerRun(20, func() { st = c.IterStats() })
	if len(st) != 40 || len(st[39].Places) != 6 {
		t.Fatalf("readout lost data: %d iterations", len(st))
	}
	if allocs > 2 {
		t.Errorf("IterStats costs %.0f allocs/op, want <= 2", allocs)
	}
}

func TestNegativeIterIgnored(t *testing.T) {
	c := NewCollector(topology.TX2())
	taskDone(c, topology.Place{Leader: 0, Width: 1}, false, -1, 0, 1)
	if len(c.IterStats()) != 0 {
		t.Fatal("iter -1 recorded")
	}
}

func TestZeroMakespanThroughput(t *testing.T) {
	c := NewCollector(topology.TX2())
	if c.Throughput() != 0 {
		t.Fatal("throughput without makespan should be 0")
	}
}

func TestSparseIterFallsBackToMap(t *testing.T) {
	c := NewCollector(topology.TX2())
	sparse := maxDenseIter + 1_000_000_000 // far beyond the dense range
	taskDone(c, topology.Place{Leader: 0, Width: 1}, false, 2, 0.0, 1.0)
	taskDone(c, topology.Place{Leader: 0, Width: 1}, false, sparse, 1.0, 2.0)
	taskDone(c, topology.Place{Leader: 1, Width: 1}, false, sparse, 1.5, 2.5)
	for _, later := range []int{sparse + 3, sparse + 1, sparse + 2} {
		taskDone(c, topology.Place{Leader: 0, Width: 1}, false, later, 3.0, 4.0)
	}
	st := c.IterStats()
	if len(st) != 5 || st[0].Iter != 2 || st[1].Iter != sparse ||
		st[2].Iter != sparse+1 || st[3].Iter != sparse+2 || st[4].Iter != sparse+3 {
		t.Fatalf("iters = %+v", st)
	}
	if st[1].Tasks != 2 || st[1].Start != 1.0 || st[1].End != 2.5 {
		t.Fatalf("sparse iter = %+v", st[1])
	}
	if len(c.byIter) > maxDenseIter/1024 {
		t.Fatalf("sparse tag grew the dense index to %d entries", len(c.byIter))
	}
}
