package scenario

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/workloads"
)

// useExecutor makes Run use a fresh executor of that many workers, whatever
// GOMAXPROCS is here, until the test ends.
func useExecutor(t *testing.T, workers int) {
	shared := defaultExecutor
	defaultExecutor = NewExecutor(workers)
	t.Cleanup(func() { defaultExecutor = shared })
}

// TestExecutorOneWorkerKeepsOrder: with one worker the cells run one at a
// time, in exactly the order given.
func TestExecutorOneWorkerKeepsOrder(t *testing.T) {
	e := NewExecutor(1)
	var got []int
	running := 0
	err := e.Run(context.Background(), 8, func(_ int, _ *CellState, k int) bool {
		running++
		if running != 1 {
			t.Errorf("%d cells running at once on one worker", running)
		}
		got = append(got, k)
		runtime.Gosched()
		running--
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("hand-out order %v, want %v", got, want)
	}
}

// TestExecutorCancelStopsHandOut: once the context is done no further cell
// starts, the cells that did start are waited for, and Run reports the
// cancellation. Cell 0 holds one worker, so cell 1 — which cancels — runs
// on the other (a static split would have queued it behind cell 0); nothing
// else may follow. service.TestExecuteLateWorker is the full late-worker case.
func TestExecutorCancelStopsHandOut(t *testing.T) {
	e := NewExecutor(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan struct{})
	var started atomic.Int32
	err := e.Run(ctx, 10, func(_ int, _ *CellState, k int) bool {
		started.Add(1)
		switch k {
		case 0:
			<-cancelled
		case 1:
			cancel()
			close(cancelled)
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 2 {
		t.Errorf("%d cells started, want exactly the 2 handed out before the cancellation", n)
	}
	if err := e.Run(ctx, 3, func(int, *CellState, int) bool {
		t.Error("a cell of an already cancelled batch ran")
		return true
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on a cancelled context = %v, want context.Canceled", err)
	}
}

// TestExecutorStatesOutliveBatches: workers own their states, so five
// batches of four cells on two workers see at most two of them — and a
// state whose cell reported it broken is never handed to a cell again.
func TestExecutorStatesOutliveBatches(t *testing.T) {
	e := NewExecutor(2)
	var mu sync.Mutex
	seen := map[*CellState]bool{}
	var broken *CellState
	run := func(breakAt int) {
		t.Helper()
		err := e.Run(context.Background(), 4, func(_ int, st *CellState, k int) bool {
			mu.Lock()
			defer mu.Unlock()
			if st == nil || st == broken {
				t.Errorf("cell %d got state %p (broken state %p)", k, st, broken)
			}
			seen[st] = true
			if k == breakAt {
				broken = st
				return false
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for batch := 0; batch < 5; batch++ {
		run(-1)
	}
	if len(seen) == 0 || len(seen) > 2 {
		t.Fatalf("5 batches × 4 cells on 2 workers saw %d distinct states, want 1..2", len(seen))
	}
	run(1)
	run(-1)
	run(-1)
	if len(seen) > 3 {
		t.Errorf("%d distinct states after one was dropped, want at most 3", len(seen))
	}
}

// TestExecutorInterleavesBatches: two batches queued on one worker take
// turns cell by cell — neither waits for the other to drain.
func TestExecutorInterleavesBatches(t *testing.T) {
	e := NewExecutor(1)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	batch := func(n int, run CellFunc) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Run(context.Background(), n, run); err != nil {
				t.Error(err)
			}
		}()
	}
	// Park the only worker in a gate cell until both batches are queued.
	parked := make(chan struct{})
	batch(1, func(int, *CellState, int) bool { close(parked); <-gate; return true })
	<-parked
	var order []string
	for i, name := range []string{"a", "b"} {
		batch(4, func(int, *CellState, int) bool { order = append(order, name); return true })
		for len(e.tickets) != i+1 {
			runtime.Gosched()
		}
	}
	close(gate)
	wg.Wait()
	if got := strings.Join(order, ""); got != "abababab" {
		t.Errorf("cells of two queued batches ran in order %q, want them interleaved (abababab)", got)
	}
}

// failureGrid is a one-policy, one-point grid of reps cells that
// runCellHook tests fail at will.
func failureGrid(reps int) Spec {
	return Spec{
		Name:     "mid-grid-failure",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 64}},
		Policies: []core.Policy{core.RWS()},
		Reps:     reps,
		Seed:     1,
	}
}

// TestRunReportsLowestFailureOnFourWorkers: reps 2 and 3 both fail, rep 3
// first — rep 2 and every later cell are held until rep 3's failure has
// cancelled the batch (the Progress call for the third finished cell can
// only be rep 3's, and comes after the cancel). Run must still name rep 2,
// and must hand out nothing once the batch is cancelled: at most the two
// further cells that were already running.
func TestRunReportsLowestFailureOnFourWorkers(t *testing.T) {
	useExecutor(t, 4)
	defer func() { runCellHook = nil }()
	for round := 0; round < 50; round++ {
		afterCancel := make(chan struct{})
		var ran atomic.Int32
		runCellHook = func(p *Plan, c CellJob) (RunMetrics, error, bool) {
			ran.Add(1)
			switch {
			case c.Rep < 2:
				return RunMetrics{}, nil, true
			case c.Rep == 3:
				return RunMetrics{}, errInjected(3), true
			}
			<-afterCancel
			if c.Rep == 2 {
				return RunMetrics{}, errInjected(2), true
			}
			return RunMetrics{}, nil, true
		}
		s := failureGrid(24)
		s.Progress = func(done, _ int) {
			if done == 3 {
				close(afterCancel)
			}
		}
		_, err := Run(s)
		if err == nil || !strings.Contains(err.Error(), "(rep 2)") {
			t.Fatalf("round %d: error %v does not name the lowest failing cell (rep 2)", round, err)
		}
		if n := ran.Load(); n < 4 || n > 6 {
			t.Fatalf("round %d: %d cells started, want 4..6 (none after the failure cancelled the batch)", round, n)
		}
	}
}

// TestRunHandsOutInPlanOrder: Run's failure contract rests on cells
// starting in plan order; with one worker that is the order they run in.
func TestRunHandsOutInPlanOrder(t *testing.T) {
	var got []CellJob
	runCellHook = func(p *Plan, c CellJob) (RunMetrics, error, bool) {
		got = append(got, c)
		return RunMetrics{}, nil, true
	}
	defer func() { runCellHook = nil }()
	s := smallSynthetic(core.RWS(), core.DAMC())
	s.Reps = 2
	useExecutor(t, 1)
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p.Cells) {
		t.Errorf("Run with one worker ran cells in order %v, want plan order %v", got, p.Cells)
	}
}
