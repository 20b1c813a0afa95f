package main

import (
	"runtime"
	"time"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/dagio"
	"dynasym/internal/interfere"
	"dynasym/internal/machine"
	"dynasym/internal/profile"
	"dynasym/internal/ptt"
	"dynasym/internal/sim"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// Kernel rows: fixed iteration counts over the public API of the modules
// under the service, on the configurations of the Go micro-benchmarks they
// supersede (README.md maps one to the other). Each row is the median over
// kernelBatches batches of its per-operation time.
const kernelBatches = 5

// perOp times batches of iters calls of f and returns the median time of
// one call, in nanoseconds.
func perOp(iters int, f func()) float64 {
	per := make([]float64, kernelBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(iters)
	}
	return median(per)
}

// rescheduler keeps an event chain alive until its budget is spent: the
// steady-state pattern of simrt's step events.
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

// kernelRows fills the kernel rows. quick cuts every iteration count by 20.
func kernelRows(l map[string]float64, quick bool) {
	scale := func(n int) int {
		if quick {
			return max(n/20, 1)
		}
		return n
	}
	const us, msec = 1e3, 1e6 // nanoseconds per unit

	// simrt: the scaleout-64 engine stress (8 clusters x 8 cores, bursts
	// on the little clusters, 2400 MatMul tasks at parallelism 16 under
	// DAM-C~32), fresh runtime per run and reset-and-reuse.
	topo := topology.ScaleOut(8, 8)
	model := machine.New(topo)
	for ci := 1; ci < topo.NumClusters(); ci += 2 {
		interfere.BurstCPU(model, topo.CoresOf(ci), 0.5, 2, 2, float64(ci/2), 0)
	}
	cfg := simrt.Config{Topo: topo, Model: model, Policy: core.NewSampled(core.DAMC(), 32), Seed: 42}
	g := workloads.BuildSynthetic(workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 2400, Parallelism: 16}.Defaults())
	fz, err := g.Freeze()
	if err != nil {
		panic(err)
	}
	var events uint64
	var busy time.Duration
	each := func(n int, f func() time.Duration) float64 {
		ds := make([]float64, n)
		for i := range ds {
			ds[i] = float64(f())
		}
		return median(ds)
	}
	l["simrt.run_ms"] = each(scale(40), func() time.Duration {
		if err := fz.Reset(g); err != nil {
			panic(err)
		}
		rt, err := simrt.New(cfg)
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		if _, err := rt.Run(g); err != nil {
			panic(err)
		}
		d := time.Since(t0)
		busy += d
		events += rt.Engine().Processed
		return d
	}) / msec
	l["simrt.events_per_s"] = float64(events) / busy.Seconds()

	rt, err := simrt.New(cfg)
	if err != nil {
		panic(err)
	}
	resetRun := func() time.Duration {
		if err := fz.Reset(g); err != nil {
			panic(err)
		}
		t0 := time.Now()
		if err := rt.Reset(cfg); err != nil {
			panic(err)
		}
		if _, err := rt.Run(g); err != nil {
			panic(err)
		}
		return time.Since(t0)
	}
	resetRun() // grow the recycled runtime's pools once
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runs := scale(40)
	l["simrt.reset_run_ms"] = each(runs, resetRun) / msec
	runtime.ReadMemStats(&m1)
	l["simrt.allocs_per_run"] = float64(m1.Mallocs-m0.Mallocs) / float64(runs)

	// sim: typed-event dispatch with 256 live chains.
	evs := scale(2_000_000)
	l["sim.event_ns"] = perOp(1, func() {
		e := sim.New()
		r := &rescheduler{e: e, left: evs}
		for i := 0; i < 256 && r.left > 0; i++ {
			r.left--
			e.AtEvent(float64(i)*1e-9, r, 0)
		}
		e.Run()
	}) / float64(evs)

	// machine: Duration under a DVFS square wave on TX2.
	tx2 := topology.TX2()
	mm := machine.New(tx2)
	mm.JitterRel = 0
	mm.SetClusterFreq(0, profile.SquareWave(2.035e9, 345e6, 5, 5))
	cost, place := machine.Cost{Ops: 1e6}, topology.Place{Leader: 0, Width: 2}
	var sink float64
	i := 0
	l["machine.duration_ns"] = perOp(scale(1_000_000), func() {
		sink += mm.Duration(cost, place, float64(i%10), machine.NoJitter)
		i++
	})

	// ptt: one table update.
	tbl := ptt.NewTable(tx2, 0)
	pl := topology.Place{Leader: 0, Width: 1}
	l["ptt.update_ns"] = perOp(scale(2_000_000), func() { tbl.Update(pl, 0.001) })

	// dagio: the DOT importer on the bundled demo graph; generating and
	// building the 16-tile Cholesky (816 tasks).
	dot := []byte(dagio.DemoDOT)
	l["dagio.parse_dot_us"] = perOp(scale(2000), func() {
		if _, err := dagio.ParseDOT(dot); err != nil {
			panic(err)
		}
	}) / us
	chol := dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 16}
	var built *dag.Graph
	l["dagio.gen_cholesky_ms"] = perOp(scale(20), func() {
		gs, err := chol.Graph()
		if err != nil {
			panic(err)
		}
		if built, err = gs.Build(); err != nil {
			panic(err)
		}
	}) / msec

	// dag: freezing that graph, and stamping an instance out of the frozen
	// form.
	var frozen *dag.Frozen
	l["dag.freeze_ms"] = perOp(scale(40), func() {
		if frozen, err = built.Freeze(); err != nil {
			panic(err)
		}
	}) / msec
	l["dag.instantiate_us"] = perOp(scale(400), func() { _ = frozen.NewGraph() }) / us

	// workloads: building the synthetic layered DAG the scale-out cells run.
	syn := workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 2400, Parallelism: 16}.Defaults()
	l["workloads.build_synthetic_ms"] = perOp(scale(40), func() { _ = workloads.BuildSynthetic(syn) }) / msec
	_ = sink
}
