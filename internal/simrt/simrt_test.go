package simrt_test

import (
	"strings"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/interfere"
	"dynasym/internal/machine"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

func newRT(t *testing.T, pol core.Policy, seed uint64, disturb func(*machine.Model)) *simrt.Runtime {
	t.Helper()
	topo := topology.TX2()
	model := machine.New(topo)
	if disturb != nil {
		disturb(model)
	}
	rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: pol, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func smallDAG() *dag.Graph {
	return workloads.BuildSynthetic(workloads.SyntheticConfig{
		Kernel: workloads.MatMul, Tile: 64, Tasks: 400, Parallelism: 4,
	})
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		rt := newRT(t, core.DAMC(), 99, nil)
		coll, err := rt.Run(smallDAG())
		if err != nil {
			t.Fatal(err)
		}
		return coll.Makespan(), coll.TasksDone()
	}
	m1, n1 := run()
	m2, n2 := run()
	if m1 != m2 || n1 != n2 {
		t.Fatalf("same seed produced different results: %g/%d vs %g/%d", m1, n1, m2, n2)
	}
}

func TestSeedsChangeSchedule(t *testing.T) {
	run := func(seed uint64) float64 {
		rt := newRT(t, core.RWS(), seed, nil)
		coll, err := rt.Run(smallDAG())
		if err != nil {
			t.Fatal(err)
		}
		return coll.Makespan()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds gave bit-identical makespans (suspicious)")
	}
}

func TestAllTasksComplete(t *testing.T) {
	for _, pol := range core.All() {
		g := smallDAG()
		rt := newRT(t, pol, 5, nil)
		coll, err := rt.Run(g)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if coll.TasksDone() != 400 {
			t.Fatalf("%s: %d tasks done, want 400", pol.Name(), coll.TasksDone())
		}
		if !rt.Finished() {
			t.Fatalf("%s: runtime not finished after Run", pol.Name())
		}
	}
}

func TestWorkConservation(t *testing.T) {
	// Total per-core busy time must not exceed cores × makespan, and
	// must be positive and account for a decent share of the run.
	rt := newRT(t, core.DAMC(), 5, nil)
	coll, err := rt.Run(smallDAG())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, b := range coll.CoreBusy() {
		total += b
	}
	limit := coll.Makespan() * 6
	if total <= 0 || total > limit*1.0001 {
		t.Fatalf("busy time %g outside (0, %g]", total, limit)
	}
}

func TestHighTasksRespectPlacementGuarantee(t *testing.T) {
	// Under DA the critical tasks must never run on the interfered core
	// once the model has learned (the paper's Figure 5e shows 98% on
	// core 1); allow a small exploration allowance.
	rt := newRT(t, core.DA(), 7, func(m *machine.Model) {
		interfere.CoRunCPU(m, []int{0}, 0.5)
	})
	g := workloads.BuildSynthetic(workloads.SyntheticConfig{
		Kernel: workloads.MatMul, Tile: 64, Tasks: 2000, Parallelism: 2,
	})
	coll, err := rt.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var onInterfered, total int64
	for _, ps := range coll.PlaceHistogram() {
		total += ps.Count
		if ps.Place.Leader == 0 {
			onInterfered += ps.Count
		}
	}
	if frac := float64(onInterfered) / float64(total); frac > 0.05 {
		t.Fatalf("%.1f%% of critical tasks on the interfered core, want < 5%%", frac*100)
	}
}

func TestNonMoldablePoliciesNeverMold(t *testing.T) {
	fa, err := core.ByName("FA")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []core.Policy{core.RWS(), fa, core.DA()} {
		topo := topology.TX2()
		rt, err := simrt.New(simrt.Config{Topo: topo, Model: machine.New(topo), Policy: pol, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		g := smallDAG()
		_, fz := snapshotEdges(t, g)
		coll, err := rt.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		events := expand(coll, topo, fz)
		for _, ev := range events {
			if ev.Width != 1 {
				t.Fatalf("%s ran %s on a place of width %d", pol.Name(), ev.Label, ev.Width)
			}
		}
		if int64(len(events)) != coll.TasksDone() {
			t.Fatalf("%s: %d traced executions for %d tasks", pol.Name(), len(events), coll.TasksDone())
		}
	}
}

func TestDynamicGraphRuns(t *testing.T) {
	km := workloads.NewKMeans(workloads.KMeansConfig{N: 1 << 10, MaxIters: 5, Grains: 8})
	g := km.Build()
	rt := newRT(t, core.DAMC(), 11, nil)
	coll, err := rt.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	// 5 iterations × (8 assigns + 1 reduce), all unrolled up front.
	if n := len(g.Snapshot().AppendPending(nil)); n != 45 || coll.TasksDone() != 45 {
		t.Fatalf("k-means graph has %d tasks and executed %d, want 45", n, coll.TasksDone())
	}
}

func TestConfigValidation(t *testing.T) {
	topo := topology.TX2()
	model := machine.New(topo)
	if _, err := simrt.New(simrt.Config{Model: model, Policy: core.RWS()}); err == nil {
		t.Fatal("missing Topo accepted")
	}
	if _, err := simrt.New(simrt.Config{Topo: topo, Policy: core.RWS()}); err == nil {
		t.Fatal("missing Model accepted")
	}
	if _, err := simrt.New(simrt.Config{Topo: topo, Model: model}); err == nil {
		t.Fatal("missing Policy accepted")
	}
	other := topology.TX2()
	if _, err := simrt.New(simrt.Config{Topo: other, Model: model, Policy: core.RWS()}); err == nil {
		t.Fatal("model/platform mismatch accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	rt := newRT(t, core.RWS(), 1, nil)
	coll, err := rt.Run(dag.New())
	if err != nil {
		t.Fatal(err)
	}
	if coll.TasksDone() != 0 || coll.Makespan() != 0 {
		t.Fatal("empty graph produced work")
	}
}

// A dependency cycle behind a ready root stalls the run; the error must
// count the tasks that never ran.
func TestStallReportsRemainingTasks(t *testing.T) {
	g := dag.New()
	a := g.Add(dag.Task{Label: "a"})
	b := g.Add(dag.Task{Label: "b"}, a)
	c := g.Add(dag.Task{Label: "c"}, b)
	g.AddEdge(c, b)
	_, err := newRT(t, core.RWS(), 1, nil).Run(g)
	if err == nil || !strings.Contains(err.Error(), "stalled with 2 tasks outstanding") {
		t.Fatalf("Run on a cyclic graph returned %v, want a stall naming 2 outstanding tasks", err)
	}
}

func TestRuntimeSingleUse(t *testing.T) {
	rt := newRT(t, core.RWS(), 1, nil)
	if _, err := rt.Run(smallDAG()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(smallDAG()); err == nil {
		t.Fatal("second Run on same runtime accepted")
	}
}

func TestStealCountersMove(t *testing.T) {
	rt := newRT(t, core.RWS(), 1, nil)
	if _, err := rt.Run(smallDAG()); err != nil {
		t.Fatal(err)
	}
	var steals int64
	for _, s := range rt.CoreStats() {
		steals += s.Steals
	}
	if steals == 0 {
		t.Fatal("no steals happened in a work-stealing run")
	}
}

// finishTwice takes over every execution and finishes it immediately — the
// hook contract's simplest legal use — and then breaks the contract on the
// first one by finishing it again.
type finishTwice struct {
	taken    int
	panicked any
}

func (h *finishTwice) Exec(rt *simrt.Runtime, x simrt.Execution, t *dag.Task, pl topology.Place, start float64) bool {
	h.taken++
	rt.Finish(x, rt.ModelDuration(t.Cost, pl, start))
	if h.taken == 1 {
		func() {
			defer func() { h.panicked = recover() }()
			rt.Finish(x, start)
		}()
	}
	return true
}

// An execution a hook took over finishes exactly once: the run completes on
// the hook's finish times, and a second Finish on the same execution panics.
func TestHookFinishTwicePanics(t *testing.T) {
	topo := topology.TX2()
	hook := &finishTwice{}
	rt, err := simrt.New(simrt.Config{Topo: topo, Model: machine.New(topo), Policy: core.DAMC(), Seed: 3, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := rt.Run(smallDAG())
	if err != nil {
		t.Fatal(err)
	}
	if coll.TasksDone() != 400 || hook.taken != 400 {
		t.Fatalf("%d tasks done, %d executions offered to the hook, want 400 and 400", coll.TasksDone(), hook.taken)
	}
	if msg, _ := hook.panicked.(string); !strings.Contains(msg, "delivered twice") {
		t.Fatalf("second Finish on one execution: recovered %v, want the delivered-twice panic", hook.panicked)
	}
}
