package scenario

import (
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
)

// benchCompiledSpec is a same-graph rep sweep over the 16-tile Cholesky
// (816 tasks) — the shape where workload compilation pays: every cell runs
// a structurally identical graph.
func benchCompiledSpec() Spec {
	return Spec{
		Name:     "bench-compiled-cell",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 16}},
		Policies: []core.Policy{core.DAMC()},
		Reps:     4,
	}
}

// BenchmarkCompiledCellRun measures one full simulated cell of the sweep
// through the compiled-workload path: every cell reads the variant's one
// frozen graph and the worker's engine is reused across cells.
func BenchmarkCompiledCellRun(b *testing.B) {
	p, err := NewPlan(benchCompiledSpec())
	if err != nil {
		b.Fatal(err)
	}
	st := NewCellState()
	if _, err := p.RunCellState(st, p.Cells[0]); err != nil {
		b.Fatal(err) // warm: compiles the variant
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCellState(st, p.Cells[i%len(p.Cells)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUncompiledCellRun is the identical sweep with the compiled
// layer disabled — every cell re-runs the generator and builder, the
// pre-compilation behavior — so the pair quantifies what compilation
// saves per cell.
func BenchmarkUncompiledCellRun(b *testing.B) {
	p, err := NewPlan(benchCompiledSpec())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rebuildFor(p, p.Cells[i%len(p.Cells)])
		if _, err := p.RunCellState(NewCellState(), p.Cells[i%len(p.Cells)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdGridJob is the in-process form of the `cold-grid` bench
// workload's job: per iteration, the scaleout-32 family at scale 0.05 with a
// fresh seed (500 000 + i), planned and its 8 cells run on one reused
// CellState. Nothing is cached, so a profile of it is where a cold job's
// CPU goes without the daemon, HTTP or GC tuning (EXPERIMENTS.md, "Where a
// cold-grid job's CPU goes, in process").
func BenchmarkColdGridJob(b *testing.B) {
	f, ok := Lookup("scaleout-32")
	if !ok {
		b.Fatal("no scaleout-32 family")
	}
	st := NewCellState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := f.Spec(0.05)
		spec.Seed = 500_000 + uint64(i)
		p, err := NewPlan(spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range p.Cells {
			if _, err := p.RunCellState(st, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}
