package simrt_test

import (
	"fmt"
	"sort"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/dagio"
	"dynasym/internal/interfere"
	"dynasym/internal/machine"
	"dynasym/internal/sim"
	"dynasym/internal/simnet"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/trace"
	"dynasym/internal/workloads"
)

// A schedule oracle that shares nothing with the runtime's completion path:
// it knows the graph's edges (snapshotted by label before the run), the core
// count and the recorded trace slices, and checks that the schedule is
// *valid* — not merely repeatable.

// graphEdges is the structure of a graph as the oracle sees it.
type graphEdges struct {
	labels []string
	edges  [][2]string // {predecessor, successor}
}

func snapshotEdges(g *dag.Graph) graphEdges {
	var ge graphEdges
	for _, t := range g.Tasks() {
		ge.labels = append(ge.labels, t.Label)
		for _, s := range t.Succs() {
			ge.edges = append(ge.edges, [2]string{t.Label, s.Label})
		}
	}
	return ge
}

// checkSchedule reports every way the recorded slices fail to be a valid
// execution of the graph on `cores` cores ending at makespan.
func checkSchedule(ge graphEdges, events []trace.Event, cores int, makespan float64) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	// Every task ran exactly once, as Width slices sharing one interval and
	// one leader on Width consecutive cores.
	byLabel := map[string][]trace.Event{}
	for _, ev := range events {
		byLabel[ev.Label] = append(byLabel[ev.Label], ev)
	}
	known := make(map[string]bool, len(ge.labels))
	for _, l := range ge.labels {
		if known[l] {
			fail("label %q is not unique; the oracle needs unique labels", l)
		}
		known[l] = true
	}
	for l := range byLabel {
		if !known[l] {
			fail("trace holds task %q, which is not in the graph", l)
		}
	}
	last := 0.0
	for _, l := range ge.labels {
		evs := byLabel[l]
		if len(evs) == 0 {
			fail("task %q never ran", l)
			continue
		}
		first := evs[0]
		if first.Width < 1 || len(evs) != first.Width {
			fail("task %q ran as %d slices of a width-%d place", l, len(evs), first.Width)
			continue
		}
		if first.End < first.Start {
			fail("task %q ends before it starts (%g < %g)", l, first.End, first.Start)
		}
		seen := map[int]bool{}
		for _, ev := range evs {
			if ev.Start != first.Start || ev.End != first.End || ev.Leader != first.Leader || ev.Width != first.Width {
				fail("task %q members disagree: %+v vs %+v", l, ev, first)
			}
			if ev.Core < first.Leader || ev.Core >= first.Leader+first.Width || ev.Core >= cores || seen[ev.Core] {
				fail("task %q member on core %d, place is [%d,%d) of %d cores", l, ev.Core, first.Leader, first.Leader+first.Width, cores)
			}
			seen[ev.Core] = true
		}
		if first.End > last {
			last = first.End
		}
	}
	if len(bad) > 0 {
		return bad // the checks below assume one interval per task
	}

	// No task starts before every predecessor has finished.
	for _, e := range ge.edges {
		pred, succ := byLabel[e[0]][0], byLabel[e[1]][0]
		if succ.Start < pred.End {
			fail("task %q starts at %g, before its predecessor %q ends at %g", e[1], succ.Start, e[0], pred.End)
		}
	}

	// No core runs two slices at once.
	perCore := make([][]trace.Event, cores)
	for _, ev := range events {
		perCore[ev.Core] = append(perCore[ev.Core], ev)
	}
	for c, evs := range perCore {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].End < evs[j].End
		})
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].End {
				fail("core %d runs %q [%g,%g) and %q [%g,%g) at once", c,
					evs[i-1].Label, evs[i-1].Start, evs[i-1].End, evs[i].Label, evs[i].Start, evs[i].End)
			}
		}
	}

	if makespan != last {
		fail("makespan %g, but the last task ends at %g", makespan, last)
	}
	return bad
}

func reportSchedule(t *testing.T, bad []string) {
	t.Helper()
	for i, b := range bad {
		if i == 10 {
			t.Errorf("… and %d more violations", len(bad)-i)
			break
		}
		t.Error(b)
	}
}

func TestScheduleValidity(t *testing.T) {
	builders := map[string]func(*testing.T) *dag.Graph{
		"synthetic": func(*testing.T) *dag.Graph { return smallDAG() },
		"kmeans": func(*testing.T) *dag.Graph {
			return workloads.NewKMeans(workloads.KMeansConfig{N: 1 << 12, Grains: 8, MaxIters: 6}).Build()
		},
		"cholesky": func(t *testing.T) *dag.Graph {
			gs, err := dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 6}.Graph()
			if err != nil {
				t.Fatal(err)
			}
			g, err := gs.Build()
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
	for name, build := range builders {
		for _, pol := range core.All() {
			name, build, pol := name, build, pol
			t.Run(name+"/"+pol.Name(), func(t *testing.T) {
				topo := topology.TX2()
				model := machine.New(topo)
				// Bursts sweeping over half the cores: places keep changing
				// speed under the scheduler's feet.
				interfere.BurstCPU(model, []int{0, 2, 3}, 0.3, 2e-3, 3e-3, 0, 1e-3)
				rec := trace.New()
				rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: pol, Seed: 13, Trace: rec})
				if err != nil {
					t.Fatal(err)
				}
				g := build(t)
				ge := snapshotEdges(g)
				coll, err := rt.Run(g)
				if err != nil {
					t.Fatal(err)
				}
				if int(coll.TasksDone()) != len(ge.labels) {
					t.Errorf("collector counted %d tasks, graph has %d", coll.TasksDone(), len(ge.labels))
				}
				reportSchedule(t, checkSchedule(ge, rec.Events(), topo.NumCores(), coll.Makespan()))
			})
		}
	}
}

// The per-node graphs of the distributed Heat stencil run with an execution
// hook that moves the exchange tasks' finish times to message arrivals; their
// schedules must be valid all the same.
func TestScheduleValidityHeatDistHook(t *testing.T) {
	hd := workloads.NewHeatDist(workloads.HeatDistConfig{Nodes: 3, BlocksPerNode: 6, Iters: 5, RowsPerBlock: 8, Cols: 4096})
	engine := sim.New()
	net := simnet.New(engine, 5e-6, 1e9)
	type node struct {
		rt   *simrt.Runtime
		rec  *trace.Recorder
		ge   graphEdges
		topo *topology.Platform
	}
	nodes := make([]node, hd.Nodes)
	for i := range nodes {
		topo := topology.HaswellNode(i)
		model := machine.New(topo)
		if i == 1 {
			interfere.BurstCPU(model, topo.CoresOf(0), 0.3, 1e-3, 1e-3, 0, 2e-4)
		}
		rec := trace.New()
		rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: core.DAMP(), Seed: uint64(7 + i),
			Engine: engine, Hook: hd.Hook(net, i), Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		g := hd.BuildNode(i)
		nodes[i] = node{rt: rt, rec: rec, ge: snapshotEdges(g), topo: topo}
		if err := rt.Start(g); err != nil {
			t.Fatal(err)
		}
	}
	engine.Run()
	for i, n := range nodes {
		if !n.rt.Finished() {
			t.Fatalf("node %d stalled", i)
		}
		reportSchedule(t, checkSchedule(n.ge, n.rec.Events(), n.topo.NumCores(), n.rt.Makespan()))
	}
}

// The oracle itself must reject broken schedules, or passing means nothing.
func TestScheduleOracleRejectsInvalidSchedules(t *testing.T) {
	ge := graphEdges{labels: []string{"a", "b"}, edges: [][2]string{{"a", "b"}}}
	slice := func(label string, core, leader, width int, start, end float64) trace.Event {
		return trace.Event{Label: label, Core: core, Leader: leader, Width: width, Start: start, End: end}
	}
	valid := []trace.Event{slice("a", 0, 0, 2, 0, 1), slice("a", 1, 0, 2, 0, 1), slice("b", 1, 1, 1, 1, 2)}
	if bad := checkSchedule(ge, valid, 2, 2); len(bad) != 0 {
		t.Fatalf("valid schedule rejected: %v", bad)
	}
	for name, tc := range map[string]struct {
		events   []trace.Event
		makespan float64
	}{
		"missing task":      {valid[:2], 1},
		"task ran twice":    {append(valid[:3:3], slice("b", 0, 0, 1, 2, 3)), 3},
		"missing member":    {valid[1:], 2},
		"precedence broken": {[]trace.Event{valid[0], valid[1], slice("b", 1, 1, 1, 0.5, 2)}, 2},
		"core double-booked": {[]trace.Event{slice("a", 0, 0, 1, 0, 1), slice("b", 0, 0, 1, 1, 2),
			slice("c", 0, 0, 1, 1.5, 1.8)}, 2},
		"wrong makespan": {valid, 2.5},
		"unknown task":   {append(valid[:3:3], slice("z", 0, 0, 1, 2, 3)), 3},
		"core off place": {[]trace.Event{slice("a", 0, 0, 1, 0, 1), slice("b", 0, 1, 1, 1, 2)}, 2},
	} {
		g := ge
		if name == "core double-booked" {
			g = graphEdges{labels: []string{"a", "b", "c"}}
		}
		if bad := checkSchedule(g, tc.events, 2, tc.makespan); len(bad) == 0 {
			t.Errorf("%s: invalid schedule accepted", name)
		}
	}
}
