package service

// Backends execute cell shards. The manager plans a submitted spec into
// cell jobs (internal/scenario Plan), batches the uncached cells into
// shards, and hands each shard to a backend; a shard that fails on one
// backend is retried on the others. Two implementations exist: the
// in-process executor backend below, and the remote peer backend (remote.go)
// that farms shards to another asymd node over POST /v1/shards.

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"dynasym/internal/obs"
	"dynasym/internal/scenario"
	"dynasym/internal/trace"
)

// CellResult is one cell's outcome. Err carries a deterministic engine
// error (the cell itself is invalid or failed); such errors fail the job
// and are never retried — rerunning a deterministic failure elsewhere
// produces the same failure. Transport-level problems are reported as
// Execute's error instead, and those ARE retried on another backend.
type CellResult struct {
	Hash    string
	Metrics scenario.RunMetrics
	Err     error
}

// Backend executes a batch of cells from one plan.
type Backend interface {
	// Name identifies the backend in errors, logs and stats.
	Name() string
	// Execute runs the cells and returns one result per cell, in order.
	// A non-nil error means the backend itself failed (pool shut down,
	// peer unreachable, ...) and the shard may be retried elsewhere. Even
	// then the result slice may carry cells that completed before the
	// failure (entries with a non-empty Hash); callers should bank those
	// and retry only the remainder. Per-cell engine errors go into
	// CellResult.Err.
	Execute(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error)
}

// localBackend runs cells in process on the node's cell executor, shared by
// all jobs and shard requests this node serves: its workers are the node-wide
// bound on concurrent simulations, and their scratch states outlive the job,
// so only a worker's first cell pays simrt.New and cold event tiers.
type localBackend struct {
	exec *scenario.Executor
	// runs counts cells actually simulated (the cache-miss work). The
	// manager points it, busy, runSec and parallelism at its metric
	// registry; a bare backend counts on a private counter and leaves the
	// nil-tolerant other three unwired.
	runs        *obs.Counter
	busy        *obs.Gauge
	runSec      *obs.Histogram
	parallelism *obs.Histogram
	// panics counts cells whose simulation panicked (see runCellSafe).
	panics *obs.Counter
	// runCell is the engine entry point; tests substitute it to count
	// runs or inject failures without simulating.
	runCell func(*scenario.Plan, *scenario.CellState, scenario.CellJob) (scenario.RunMetrics, error)
}

func newLocalBackend(workers int) *localBackend {
	return &localBackend{
		exec:    scenario.NewExecutor(workers),
		runs:    new(obs.Counter),
		panics:  new(obs.Counter),
		runCell: (*scenario.Plan).RunCellState,
	}
}

func (b *localBackend) Name() string { return "local" }

// runCellSafe is the panic boundary around one cell. The simulator's
// packages panic on states only a bug can produce, but the spec that
// reaches them is client input: a panicking cell becomes that cell's
// deterministic error (the job fails like any failed cell) instead of
// taking the daemon, and every other job, down. The scratch state of a
// panicked cell is mid-run garbage: stateOK stays false and the worker drops
// it.
func (b *localBackend) runCellSafe(ctx context.Context, plan *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (rm scenario.RunMetrics, stateOK bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			b.panics.Inc()
			err = fmt.Errorf("cell %s panicked: %v (request %q)", plan.CellLabel(c), v, requestIDFrom(ctx))
		}
	}()
	rm, err = b.runCell(plan, st, c)
	return rm, true, err
}

// Execute hands the cells to the executor in variant-major order: cells of
// one compiled graph stay contiguous, and every free worker pulls the next
// one, so neither the cost gradient between variants nor a worker that
// starts late leaves a worker idle while cells wait.
//
// On context cancellation the results of cells that already completed are
// returned alongside ctx.Err() — completed simulation work is never
// discarded, and runs counts exactly the cells that actually ran.
func (b *localBackend) Execute(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error) {
	out := make([]CellResult, len(cells))
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return plan.PointVariant(cells[order[a]].Point) < plan.PointVariant(cells[order[b]].Point)
	})
	jt, lanePrefix := jobTraceFrom(ctx), traceLaneFrom(ctx)
	var cellNanos atomic.Int64
	start := time.Now()
	err := b.exec.Run(ctx, len(cells), func(w int, st *scenario.CellState, k int) bool {
		i := order[k]
		b.runs.Inc()
		b.busy.Inc()
		cellT0, cellStart := jt.at(), time.Now()
		rm, stateOK, err := b.runCellSafe(ctx, plan, st, cells[i])
		d := time.Since(cellStart)
		b.runSec.Observe(d.Seconds())
		cellNanos.Add(int64(d))
		b.busy.Dec()
		if jt != nil {
			jt.span(trace.Span{
				Name: plan.CellLabel(cells[i]), Cat: "simulate",
				Lane: fmt.Sprintf("%s w%d", lanePrefix, w), Start: cellT0, End: jt.at(),
			})
		}
		out[i] = CellResult{Hash: cells[i].Hash, Metrics: rm, Err: err}
		return stateOK
	})
	// Effective workers of this batch: 1 when its cells ran back to back,
	// the pool size when every worker was busy on it from start to end.
	if busy, wall := cellNanos.Load(), time.Since(start); busy > 0 && wall > 0 {
		b.parallelism.Observe(float64(busy) / float64(wall))
	}
	return out, err
}
