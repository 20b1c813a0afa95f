package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dynasym/internal/core"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// benchSpec is the service-path workload: big enough that a cold run does
// real simulation, small enough for the CI 1-iteration rot gate.
func benchSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Name: "service-bench",
		Workload: scenario.WorkloadSpec{Kind: scenario.Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul, Tasks: 2000, Parallelism: 8,
		}},
		Policies: []core.Policy{core.DAMC()},
		Points:   scenario.ParallelismPoints(8),
		Seed:     seed,
	}
}

// BenchmarkServiceCacheHit measures a warm lookup: submit of an
// already-cached spec (validate + canonicalize + hash + LRU hit), the
// service's steady-state serving cost.
func BenchmarkServiceCacheHit(b *testing.B) {
	m := NewManager(Config{Workers: 1, CacheSize: 4})
	j, _, err := m.Submit(benchSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, existing, err := m.Submit(benchSpec(1))
		if err != nil {
			b.Fatal(err)
		}
		if !existing {
			b.Fatal("cache miss on a warm spec")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkShardDispatch isolates the shard-dispatch machinery — plan,
// cell hashing, cache probes, shard batching, backend round-robin, merge —
// by substituting a no-op cell runner. Each iteration dispatches a fresh
// 24-cell grid (seed varies every cell hash, so nothing caches).
func BenchmarkShardDispatch(b *testing.B) {
	m := NewManager(Config{Workers: 4, CacheSize: 4, ShardSize: 4})
	m.local.runCell = func(*scenario.Plan, *scenario.CellState, scenario.CellJob) (scenario.RunMetrics, error) {
		return scenario.RunMetrics{Throughput: 1, Makespan: 1, TasksDone: 1}, nil
	}
	mkSpec := func(seed uint64) scenario.Spec {
		s := benchSpec(seed)
		s.Policies = []core.Policy{core.RWS(), core.DAMC()}
		s.Points = scenario.ParallelismPoints(2, 4, 8)
		s.Reps = 4 // 2 × 3 × 4 = 24 cells
		return s
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, existing, err := m.Submit(mkSpec(uint64(10_000 + i)))
		if err != nil {
			b.Fatal(err)
		}
		if existing {
			b.Fatal("unexpected job-cache hit")
		}
		if err := j.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		if j.loadState() != stateDone {
			b.Fatalf("job failed: %v", j.snapshot().Error)
		}
	}
	b.ReportMetric(float64(24*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkCellAssemblyWarm measures assembling a job entirely from the
// cell cache: each iteration submits the same grid under a fresh name —
// new job hash, zero engine work — so the cost is plan + cell lookups +
// merge + fingerprint.
func BenchmarkCellAssemblyWarm(b *testing.B) {
	m := NewManager(Config{Workers: 2, CacheSize: 2})
	warmup, _, err := m.Submit(benchSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := warmup.Wait(ctx); err != nil {
		b.Fatal(err)
	}
	runs := m.cellRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSpec(1)
		s.Name = fmt.Sprintf("warm-assembly-%d", i)
		j, _, err := m.Submit(s)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		if j.loadState() != stateDone {
			b.Fatalf("job failed: %v", j.snapshot().Error)
		}
	}
	b.StopTimer()
	if m.cellRuns() != runs {
		b.Fatalf("warm assembly simulated %d cells", m.cellRuns()-runs)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "assemblies/s")
}

// BenchmarkServiceColdRun measures the uncached path end to end: a fresh
// spec per iteration (seed varies the hash), one full engine run each.
func BenchmarkServiceColdRun(b *testing.B) {
	m := NewManager(Config{Workers: 1, CacheSize: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, existing, err := m.Submit(benchSpec(uint64(1000 + i)))
		if err != nil {
			b.Fatal(err)
		}
		if existing {
			b.Fatal("unexpected cache hit on a fresh seed")
		}
		if err := j.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		if j.loadState() != stateDone {
			b.Fatalf("job failed: %v", j.snapshot().Error)
		}
	}
}
