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
	"dynasym/internal/metrics"
	"dynasym/internal/sim"
	"dynasym/internal/simnet"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// A schedule oracle that shares nothing with the runtime's completion path:
// it knows the graph's edges (snapshotted by label before the run), the core
// count and the run's slices, read off its completion record, and checks
// that the schedule is *valid* — not merely repeatable. It needs no probe:
// the record is kept by every run.

// slice is one member core's share of one execution, as the oracle reads it.
type slice struct {
	Label         string
	Core          int
	Start, End    float64
	Leader, Width int
}

// expand reads a run's slices off its completion record: one per member core
// of every completion, labelled through the frozen graph the record's task
// ids index and placed through the platform's place table.
func expand(rec *metrics.Record, topo *topology.Platform, fz *dag.Frozen) []slice {
	var out []slice
	places := topo.Places()
	for _, c := range rec.Completions() {
		pl := places[c.Place]
		for k := range pl.Width {
			out = append(out, slice{Label: fz.Task(int(c.Task)).Label, Core: pl.Leader + k,
				Start: c.Start, End: c.Finish, Leader: pl.Leader, Width: pl.Width})
		}
	}
	return out
}

// graphEdges is the structure of a graph as the oracle sees it.
type graphEdges struct {
	labels []string
	edges  [][2]string // {predecessor, successor}
}

// snapshotEdges freezes g and reads its structure, by label, off the
// snapshot (whose successor lists the dag package's CSR property test pins
// to the builder's edges).
func snapshotEdges(t *testing.T, g *dag.Graph) (graphEdges, *dag.Frozen) {
	t.Helper()
	fz, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var ge graphEdges
	for i := range fz.AppendPending(nil) {
		label := fz.Task(i).Label
		ge.labels = append(ge.labels, label)
		for _, s := range fz.Succs(i) {
			ge.edges = append(ge.edges, [2]string{label, fz.Task(int(s)).Label})
		}
	}
	return ge, fz
}

// checkSchedule reports every way the recorded slices fail to be a valid
// execution of the graph on `cores` cores ending at makespan.
func checkSchedule(ge graphEdges, events []slice, cores int, makespan float64) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	// Every task ran exactly once, as Width slices sharing one interval and
	// one leader on Width consecutive cores.
	byLabel := map[string][]slice{}
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
	perCore := make([][]slice, cores)
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
				probe := simrt.NewProbe()
				rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: pol, Seed: 13, Probe: probe})
				if err != nil {
					t.Fatal(err)
				}
				g := build(t)
				ge, fz := snapshotEdges(t, g)
				coll, err := rt.Run(g)
				if err != nil {
					t.Fatal(err)
				}
				if int(coll.TasksDone()) != len(ge.labels) {
					t.Errorf("the record counted %d tasks, graph has %d", coll.TasksDone(), len(ge.labels))
				}
				reportSchedule(t, checkSchedule(ge, expand(coll, topo, fz), topo.NumCores(), coll.Makespan()))
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
		ge   graphEdges
		fz   *dag.Frozen
		topo *topology.Platform
	}
	nodes := make([]node, hd.Nodes)
	for i := range nodes {
		topo := topology.HaswellNode(i)
		model := machine.New(topo)
		if i == 1 {
			interfere.BurstCPU(model, topo.CoresOf(0), 0.3, 1e-3, 1e-3, 0, 2e-4)
		}
		probe := simrt.NewProbe()
		rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: core.DAMP(), Seed: uint64(7 + i),
			Engine: engine, Hook: hd.Hook(net, i), Probe: probe})
		if err != nil {
			t.Fatal(err)
		}
		ge, fz := snapshotEdges(t, hd.BuildNode(i))
		nodes[i] = node{rt: rt, ge: ge, fz: fz, topo: topo}
		if err := rt.Start(fz); err != nil {
			t.Fatal(err)
		}
	}
	engine.Run()
	for i, n := range nodes {
		if !n.rt.Finished() {
			t.Fatalf("node %d stalled", i)
		}
		reportSchedule(t, checkSchedule(n.ge, expand(n.rt.Collector(), n.topo, n.fz), n.topo.NumCores(), n.rt.Collector().Makespan()))
	}
}

// The oracle reads the completion record every run keeps, so it judges a run
// with no probe attached as well as a probed one.
func TestScheduleOracleNeedsNoProbe(t *testing.T) {
	topo := topology.TX2()
	model := machine.New(topo)
	interfere.CoRunCPU(model, []int{0}, 0.5)
	rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: core.DAMP(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 6}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	g, err := gs.Build()
	if err != nil {
		t.Fatal(err)
	}
	ge, fz := snapshotEdges(t, g)
	coll, err := rt.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	slices := expand(coll, topo, fz)
	if len(slices) < len(ge.labels) {
		t.Fatalf("%d slices for %d tasks", len(slices), len(ge.labels))
	}
	reportSchedule(t, checkSchedule(ge, slices, topo.NumCores(), coll.Makespan()))
}

// The oracle itself must reject broken schedules, or passing means nothing.
func TestScheduleOracleRejectsInvalidSchedules(t *testing.T) {
	ge := graphEdges{labels: []string{"a", "b"}, edges: [][2]string{{"a", "b"}}}
	sl := func(label string, core, leader, width int, start, end float64) slice {
		return slice{Label: label, Core: core, Leader: leader, Width: width, Start: start, End: end}
	}
	valid := []slice{sl("a", 0, 0, 2, 0, 1), sl("a", 1, 0, 2, 0, 1), sl("b", 1, 1, 1, 1, 2)}
	if bad := checkSchedule(ge, valid, 2, 2); len(bad) != 0 {
		t.Fatalf("valid schedule rejected: %v", bad)
	}
	for name, tc := range map[string]struct {
		events   []slice
		makespan float64
	}{
		"missing task":      {valid[:2], 1},
		"task ran twice":    {append(valid[:3:3], sl("b", 0, 0, 1, 2, 3)), 3},
		"missing member":    {valid[1:], 2},
		"precedence broken": {[]slice{valid[0], valid[1], sl("b", 1, 1, 1, 0.5, 2)}, 2},
		"core double-booked": {[]slice{sl("a", 0, 0, 1, 0, 1), sl("b", 0, 0, 1, 1, 2),
			sl("c", 0, 0, 1, 1.5, 1.8)}, 2},
		"wrong makespan": {valid, 2.5},
		"unknown task":   {append(valid[:3:3], sl("z", 0, 0, 1, 2, 3)), 3},
		"core off place": {[]slice{sl("a", 0, 0, 1, 0, 1), sl("b", 0, 1, 1, 1, 2)}, 2},
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
