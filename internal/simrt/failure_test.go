package simrt_test

import (
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/interfere"
	"dynasym/internal/machine"
	"dynasym/internal/profile"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// TestStallEpisodeSurvived injects a full stall of a core (availability 0)
// for a bounded episode — harsher than anything in the paper — and checks
// the run completes with the dynamic scheduler routing critical tasks
// around the dead core.
func TestStallEpisodeSurvived(t *testing.T) {
	topo := topology.TX2()
	model := machine.New(topo)
	// Core 1 (the fast clean Denver core!) dies between 50 ms and 1 s.
	interfere.Stall(model, 1, 0.05, 1.0)
	g := workloads.BuildSynthetic(workloads.SyntheticConfig{
		Kernel: workloads.MatMul, Tile: 64, Tasks: 2000, Parallelism: 2,
	})
	rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: core.DAMC(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := rt.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if coll.TasksDone() != 2000 {
		t.Fatalf("completed %d tasks", coll.TasksDone())
	}
	// Tasks that started inside the stall window on core 1 simply take
	// until the episode ends; the model must never produce a task that
	// outlives the run unfinished.
	if coll.Makespan() <= 1.0 {
		t.Fatalf("makespan %g suspiciously short for a run spanning a 0.95s stall", coll.Makespan())
	}
}

// TestFlakyCoreAdaptation alternates a core between full speed and 20%
// availability and checks the dynamic scheduler still beats random work
// stealing.
func TestFlakyCoreAdaptation(t *testing.T) {
	run := func(pol core.Policy) float64 {
		topo := topology.TX2()
		model := machine.New(topo)
		model.SetCoreAvail(1, profile.SquareWave(1.0, 0.2, 2, 2))
		g := workloads.BuildSynthetic(workloads.SyntheticConfig{
			Kernel: workloads.MatMul, Tile: 64, Tasks: 3000, Parallelism: 2,
		})
		rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: pol, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		coll, err := rt.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		return coll.Throughput()
	}
	da := run(core.DAMC())
	rws := run(core.RWS())
	if da <= rws {
		t.Fatalf("DAM-C (%.0f) did not beat RWS (%.0f) on a flaky core", da, rws)
	}
}

// TestTraceRecording checks that the simulated runtime emits one trace
// event per member execution.
func TestTraceRecording(t *testing.T) {
	topo := topology.TX2()
	model := machine.New(topo)
	probe := simrt.NewProbe()
	g := workloads.BuildSynthetic(workloads.SyntheticConfig{
		Kernel: workloads.MatMul, Tile: 64, Tasks: 100, Parallelism: 4,
	})
	rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: core.DAMP(), Seed: 2, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := rt.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	events := probe.Schedule().Events
	if len(events) < int(coll.TasksDone()) {
		t.Fatalf("trace has %d events for %d tasks", len(events), coll.TasksDone())
	}
	for _, ev := range events {
		if ev.End < ev.Start {
			t.Fatalf("event %q ends before it starts", ev.Label)
		}
		if ev.Core < ev.Leader || ev.Core >= ev.Leader+ev.Width {
			t.Fatalf("event %q core %d outside place (C%d,%d)", ev.Label, ev.Core, ev.Leader, ev.Width)
		}
	}
}

// TestSampledPolicyRuns exercises the scalable sampled-search extension on
// a large platform end to end.
func TestSampledPolicyRuns(t *testing.T) {
	topo := topology.HaswellNode(0)
	model := machine.New(topo)
	interfere.CoRunCPU(model, []int{0, 1, 2}, 0.5)
	g := workloads.BuildSynthetic(workloads.SyntheticConfig{
		Kernel: workloads.MatMul, Tile: 64, Tasks: 1000, Parallelism: 8,
	})
	rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: core.NewSampled(core.DAMC(), 8), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := rt.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if coll.TasksDone() != 1000 {
		t.Fatalf("completed %d tasks", coll.TasksDone())
	}
}
