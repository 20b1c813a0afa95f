package service

// Backends execute cell shards. The manager plans a submitted spec into
// cell jobs (internal/scenario Plan), batches the uncached cells into
// shards, and hands each shard to a backend; a shard that fails on one
// backend is retried on the others. Two implementations exist: the
// in-process bounded pool below, and the remote peer backend (remote.go)
// that farms shards to another asymd node over POST /v1/shards.

import (
	"context"
	"fmt"
	"sort"
	"sync"
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

// localBackend runs cells in process on a bounded worker pool. The pool is
// shared across all jobs and shard requests served by this node, so total
// simulation concurrency stays bounded no matter how many jobs are in
// flight.
type localBackend struct {
	sem chan struct{}
	// states is the free list of per-worker scratch (engine tiers, a
	// resettable runtime), bounded by the pool size. A cell takes a state
	// after it wins a pool slot and returns it before releasing the slot,
	// so reuse spans jobs: only a pool's first cells pay simrt.New and cold
	// event tiers.
	states chan *scenario.CellState
	// runs counts cells actually simulated (the cache-miss work). The
	// manager points it, busy and runSec at its metric registry (run
	// counter, utilization gauge, duration histogram); a bare backend
	// counts on a private counter and leaves the nil-tolerant other two
	// unwired.
	runs   *obs.Counter
	busy   *obs.Gauge
	runSec *obs.Histogram
	// panics counts cells whose simulation panicked (see runCellSafe).
	panics *obs.Counter
	// runCell is the engine entry point; tests substitute it to count
	// runs or inject failures without simulating.
	runCell func(*scenario.Plan, *scenario.CellState, scenario.CellJob) (scenario.RunMetrics, error)
}

func newLocalBackend(workers int) *localBackend {
	return &localBackend{
		sem:     make(chan struct{}, workers),
		states:  make(chan *scenario.CellState, workers),
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
// panicked cell is mid-run garbage and is dropped, not recycled.
func (b *localBackend) runCellSafe(ctx context.Context, plan *scenario.Plan, c scenario.CellJob) (rm scenario.RunMetrics, err error) {
	var st *scenario.CellState
	select {
	case st = <-b.states:
	default:
		st = scenario.NewCellState()
	}
	defer func() {
		if v := recover(); v != nil {
			b.panics.Inc()
			rm, err = scenario.RunMetrics{}, fmt.Errorf("cell %s panicked: %v (request %q)", plan.CellLabel(c), v, requestIDFrom(ctx))
			return
		}
		select {
		case b.states <- st:
		default:
		}
	}()
	return b.runCell(plan, st, c)
}

// Execute batches the cells by compiled-workload variant: cells are ordered
// so that each chunk worker sweeps cells of one compiled graph back to
// back. The semaphore is acquired per cell, not per chunk, so the
// node-wide concurrency bound and cross-shard fairness are unchanged.
//
// On context cancellation the results of cells that already completed are
// returned alongside ctx.Err() — completed simulation work is never
// discarded, and runs counts exactly the cells that actually ran.
func (b *localBackend) Execute(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error) {
	out := make([]CellResult, len(cells))
	if len(cells) == 0 {
		return out, ctx.Err()
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return plan.PointVariant(cells[order[a]].Point) < plan.PointVariant(cells[order[b]].Point)
	})
	workers := cap(b.sem)
	if workers > len(cells) {
		workers = len(cells)
	}
	chunk := (len(cells) + workers - 1) / workers
	jt := jobTraceFrom(ctx)
	lanePrefix := traceLaneFrom(ctx)
	var wg sync.WaitGroup
	for lo := 0; lo < len(order); lo += chunk {
		wg.Add(1)
		go func(w int, idxs []int) {
			defer wg.Done()
			lane := ""
			if jt != nil {
				lane = fmt.Sprintf("%s w%d", lanePrefix, w)
			}
			for _, i := range idxs {
				// Check cancellation before racing it against a free
				// worker slot: once the context is done, no further cell
				// of this chunk may start.
				select {
				case <-ctx.Done():
					return
				default:
				}
				select {
				case b.sem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				b.runs.Inc()
				b.busy.Inc()
				cellT0, cellStart := jt.at(), time.Now()
				rm, err := b.runCellSafe(ctx, plan, cells[i])
				b.runSec.Observe(time.Since(cellStart).Seconds())
				b.busy.Dec()
				if jt != nil {
					jt.span(trace.Span{
						Name: plan.CellLabel(cells[i]), Cat: "simulate",
						Lane: lane, Start: cellT0, End: jt.at(),
					})
				}
				out[i] = CellResult{Hash: cells[i].Hash, Metrics: rm, Err: err}
				<-b.sem
			}
		}(lo/chunk, order[lo:min(lo+chunk, len(order))])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}
