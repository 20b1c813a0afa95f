package scenario

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor is the one place cells run concurrently: Run and the service's
// local backend both hand it batches. Its workers, started with the first
// batch, each own one CellState for life — engine tiers and the resettable
// runtime are reused across batches — and they are the bound on concurrent
// simulations however many batches are in flight. They live as long as the
// process, like the daemon's executor and the default one.
//
// Cells are pulled, not pre-split — the paper's argument applied to its own
// simulator: a worker's speed cannot be known in advance (a second P may pick
// a worker up milliseconds late, cells of one grid differ in cost), so a
// static split turns every such asymmetry into latency, while workers that
// each take the next unstarted cell absorb it.
type Executor struct {
	workers int
	started sync.Once
	// tickets circulates one entry per worker a batch can occupy. A worker
	// takes the front ticket, runs that batch's next cell and puts the
	// ticket at the back, so concurrent batches take turns cell by cell.
	// The buffer holds many batches' tickets; when it is full submitters
	// wait and workers stay on their batch — less fair, never stuck.
	tickets chan *batch
}

// batch is one Run call.
type batch struct {
	ctx  context.Context
	run  CellFunc
	n    int
	next atomic.Int64   // cursor: the first cell not handed out
	live sync.WaitGroup // tickets in circulation
}

// CellFunc runs cell k of a batch on the calling worker's scratch state and
// reports whether the state may run another cell; false — the cell died
// mid-run — makes the worker replace it.
type CellFunc func(worker int, st *CellState, k int) (stateOK bool)

// NewExecutor returns an executor with that many workers, at least one.
func NewExecutor(workers int) *Executor {
	workers = max(workers, 1)
	return &Executor{workers: workers, tickets: make(chan *batch, 64*workers)}
}

// defaultExecutor serves Run: one set of workers, and their CellStates, for
// every Run call the process makes.
var defaultExecutor = NewExecutor(runtime.GOMAXPROCS(0))

// Run executes cells 0..n-1 and returns when every cell that was started
// has finished. Every free worker pulls the next unstarted cell, so cells
// start in index order and a slow or late worker never holds cells back
// from a free one. Once ctx is done no further cell starts; Run then returns
// ctx.Err() after the running cells finish, and what they produced is the
// caller's to keep.
func (e *Executor) Run(ctx context.Context, n int, run CellFunc) error {
	e.started.Do(func() {
		for w := 0; w < e.workers; w++ {
			go e.work(w)
		}
	})
	b := &batch{ctx: ctx, run: run, n: n}
	tickets := min(n, e.workers)
	b.live.Add(tickets)
	for range tickets {
		e.tickets <- b
	}
	b.live.Wait()
	return ctx.Err()
}

// work is one worker. A cell whose index was taken from the cursor always
// runs — cancellation is checked before — so the cells that ran are a
// prefix of the hand-out order, which Run's failure contract relies on.
func (e *Executor) work(w int) {
	st := NewCellState()
next:
	for b := range e.tickets {
		for b.ctx.Err() == nil {
			k := int(b.next.Add(1)) - 1
			if k >= b.n {
				break
			}
			if !b.run(w, st, k) {
				st = NewCellState()
			}
			select {
			case e.tickets <- b:
				continue next
			default: // full: stay on this batch rather than wait
			}
		}
		b.live.Done() // cancelled or exhausted: the ticket retires
	}
}
