package service

// Backends execute the shards of uncached cells (see the package doc): the
// in-process executor backend below, and the remote peer backend (remote.go)
// that farms shards to another asymd node over POST /v1/shards.

import (
	"cmp"
	"context"
	"errors"
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
// execute's error instead, and those move the shard on to another backend.
type CellResult struct {
	Hash     string
	Summary  scenario.RunSummary
	Err      error
	coreBusy []float64 // the run's per-core busy times; nil from a peer
}

// Backend executes a batch of cells from one plan.
type Backend interface {
	// label identifies the backend in errors, logs and stats.
	label() string
	// execute runs the cells and returns one result per cell, in order.
	// A non-nil error means the backend itself failed (peer unreachable,
	// wedged, answering garbage, ...) and the shard moves on to another
	// backend; the results are then nil. The one exception is a done ctx:
	// the result slice may then carry the cells that completed before the
	// teardown (entries with a non-empty Hash), which the caller banks.
	// Per-cell engine errors go into CellResult.Err.
	execute(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error)
}

// localBackend runs cells in process on the node's cell executor, shared by
// all jobs and shard requests this node serves: its workers are the node-wide
// bound on concurrent simulations, and their scratch states outlive the job,
// so only a worker's first cell pays simrt.New and cold event tiers.
type localBackend struct {
	exec *scenario.Executor
	// runs counts cells actually simulated (the cache-miss work). The
	// manager points it, busy, runSec, parallelism and compiled at its
	// metric registry; a bare backend counts on a private counter and leaves
	// the nil-tolerant others unwired.
	runs        *obs.Counter
	busy        *obs.Gauge
	runSec      *obs.Histogram
	parallelism *obs.Histogram
	// panics counts cells whose simulation panicked (see safely).
	panics *obs.Counter
	// compiled is the compiled-workload cache gauge: cells are what file
	// workload variants in it, so execute refreshes it.
	compiled *obs.Gauge
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

func (b *localBackend) label() string { return "local" }

// safely is the panic boundary around one cell's simulation, run. The
// simulator's packages panic on states only a bug can produce, but the spec
// that reaches them is client input: a panicking cell becomes that cell's
// deterministic error (the job fails like any failed cell) instead of
// taking the daemon, and every other job, down. The scratch state of a
// panicked cell is mid-run garbage: stateOK stays false and the worker drops
// it.
func (b *localBackend) safely(ctx context.Context, plan *scenario.Plan, c scenario.CellJob, run func() error) (stateOK bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			b.panics.Inc()
			err = fmt.Errorf("cell %s panicked: %v (request %q)", plan.CellLabel(c), v, requestIDFrom(ctx))
		}
	}()
	return true, run()
}

// rerun re-executes banked cells (a sim-trace render, a replay) as one batch
// on the executor, run(k, st) doing cell k into memory, inside the cells'
// panic boundary; runs does not count them. It returns ctx's error, if ctx is
// done when the batch returns, else the cells' errors.
func (b *localBackend) rerun(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob, run func(k int, st *scenario.CellState) error) error {
	errs := make([]error, len(cells))
	err := b.exec.Run(ctx, len(cells), func(_ int, st *scenario.CellState, k int) (stateOK bool) {
		stateOK, errs[k] = b.safely(ctx, plan, cells[k], func() error { return run(k, st) })
		return stateOK
	})
	b.compiled.Set(int64(scenario.CompiledCacheLen()))
	return cmp.Or(err, errors.Join(errs...))
}

// execute hands the cells to the executor in variant-major order: cells of
// one compiled graph stay contiguous, and every free worker pulls the next
// one, so neither the cost gradient between variants nor a worker that
// starts late leaves a worker idle while cells wait.
//
// On context cancellation the results of cells that already completed are
// returned alongside ctx.Err() — completed simulation work is never
// discarded, and runs counts exactly the cells that actually ran.
func (b *localBackend) execute(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error) {
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
		var rm scenario.RunMetrics
		stateOK, err := b.safely(ctx, plan, cells[i], func() (err error) {
			rm, err = b.runCell(plan, st, cells[i])
			return err
		})
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
		out[i] = CellResult{Hash: cells[i].Hash, Err: err}
		if err == nil {
			out[i].Summary, out[i].coreBusy = rm.Summary(), rm.CoreBusy
		}
		return stateOK
	})
	// Effective workers of this batch: 1 when its cells ran back to back,
	// the pool size when every worker was busy on it from start to end.
	if busy, wall := cellNanos.Load(), time.Since(start); busy > 0 && wall > 0 {
		b.parallelism.Observe(float64(busy) / float64(wall))
	}
	b.compiled.Set(int64(scenario.CompiledCacheLen()))
	return out, err
}
