package simrt_test

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestTraceRecording checks that the probe's Chrome trace holds one task
// slice per member execution, each on a core of its place.
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
	var buf bytes.Buffer
	n, err := probe.WriteChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var trace []struct {
		Name, Ph string
		Dur      float64
		Tid      int
		Args     struct{ Place string }
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var events int
	for _, ev := range trace {
		if ev.Ph != "X" {
			continue
		}
		events++
		if ev.Dur < 0 {
			t.Fatalf("event %q ends before it starts", ev.Name)
		}
		var leader, width int
		if _, err := fmt.Sscanf(ev.Args.Place, "(C%d,%d)", &leader, &width); err != nil {
			t.Fatalf("event %q place %q: %v", ev.Name, ev.Args.Place, err)
		}
		if ev.Tid < leader || ev.Tid >= leader+width {
			t.Fatalf("event %q core %d outside place (C%d,%d)", ev.Name, ev.Tid, leader, width)
		}
	}
	if events != n || events < int(coll.TasksDone()) {
		t.Fatalf("trace has %d events (writer reported %d) for %d tasks", events, n, coll.TasksDone())
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
