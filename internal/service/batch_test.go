package service

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dynasym/internal/scenario"
)

// TestExecuteBatchesSameVariantCells: the local backend must order a
// mixed-variant shard so each worker sweeps one compiled graph's cells
// back to back (variant-major), not in plan order (policy-major, which
// interleaves variants).
func TestExecuteBatchesSameVariantCells(t *testing.T) {
	b := newLocalBackend(1)
	var seen []int
	var plan *scenario.Plan
	b.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		seen = append(seen, p.PointVariant(c.Point))
		return scenario.RunMetrics{TasksDone: 1}, nil
	}
	plan, err := scenario.NewPlan(overlapSpec(90, 2, 4)) // 2 policies × 2 points
	if err != nil {
		t.Fatal(err)
	}
	crs, err := b.Execute(context.Background(), plan, plan.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(crs) != len(plan.Cells) {
		t.Fatalf("Execute returned %d results for %d cells", len(crs), len(plan.Cells))
	}
	for i, cr := range crs {
		if cr.Hash != plan.Cells[i].Hash {
			t.Fatalf("result %d is for hash %s, want the input-order hash %s", i, cr.Hash, plan.Cells[i].Hash)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("ran %d cells, want 4", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("execution order interleaves workload variants: %v", seen)
		}
	}
}

// TestExecuteLateWorker: the backend's cells are pulled, not pre-split. With
// two workers and six cells, the first cell holds its worker until the other
// five have finished: the second worker must run all five (static chunks
// would leave two of them waiting behind the blocked cell forever).
func TestExecuteLateWorker(t *testing.T) {
	b := newLocalBackend(2)
	plan, err := scenario.NewPlan(overlapSpec(94, 2, 4, 8)) // 2 policies × 3 points
	if err != nil {
		t.Fatal(err)
	}
	othersDone := make(chan struct{})
	var mu sync.Mutex
	perState := map[*scenario.CellState]int{}
	var calls, others atomic.Int32
	b.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		mu.Lock()
		perState[st]++
		mu.Unlock()
		if calls.Add(1) == 1 {
			<-othersDone
		} else if others.Add(1) == 5 {
			close(othersDone)
		}
		return scenario.RunMetrics{TasksDone: 1}, nil
	}
	crs, err := b.Execute(context.Background(), plan, plan.Cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range crs {
		if cr.Hash != plan.Cells[i].Hash || cr.Err != nil {
			t.Fatalf("result %d malformed: %+v", i, cr)
		}
	}
	var split []int
	for _, n := range perState {
		split = append(split, n)
	}
	sort.Ints(split)
	if !reflect.DeepEqual(split, []int{1, 5}) {
		t.Errorf("cells per worker state: %v, want a 1/5 split", split)
	}
}

// TestExecuteCancelKeepsCompletedResults pins the satellite bugfix: on
// context cancellation the local backend must return the results of cells
// that already completed (so callers can bank them) and count exactly the
// cells that ran — not the whole shard.
func TestExecuteCancelKeepsCompletedResults(t *testing.T) {
	b := newLocalBackend(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	b.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		ran++
		if ran == 2 {
			cancel() // mid-shard: two cells done, two never started
		}
		return scenario.RunMetrics{TasksDone: 1}, nil
	}
	plan, err := scenario.NewPlan(overlapSpec(91, 2, 4)) // 4 cells, one worker
	if err != nil {
		t.Fatal(err)
	}
	crs, err := b.Execute(ctx, plan, plan.Cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute error = %v, want context.Canceled", err)
	}
	if len(crs) != len(plan.Cells) {
		t.Fatalf("cancelled Execute returned %d entries, want one per cell (%d)", len(crs), len(plan.Cells))
	}
	completed := 0
	for _, cr := range crs {
		if cr.Hash != "" {
			if cr.Err != nil || cr.Metrics.TasksDone != 1 {
				t.Errorf("completed cell %s carries err=%v metrics=%+v", cr.Hash, cr.Err, cr.Metrics)
			}
			completed++
		}
	}
	if completed != 2 {
		t.Errorf("cancelled shard kept %d completed results, want 2", completed)
	}
	if got := b.runs.Value(); got != 2 {
		t.Errorf("cellRuns = %d after cancellation, want 2 (abandoned cells must not count)", got)
	}
}

// scriptedBackend lets runShard tests script per-attempt outcomes.
type scriptedBackend struct {
	name string
	fn   func(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error)
}

func (s *scriptedBackend) Name() string { return s.name }
func (s *scriptedBackend) Execute(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error) {
	return s.fn(ctx, plan, cells)
}

// TestRunShardBanksPartialResultsOnFailover: when a backend fails after
// completing part of a shard, the completed cells must enter the cell
// cache immediately and only the remainder may be retried on the next
// backend.
func TestRunShardBanksPartialResultsOnFailover(t *testing.T) {
	m := NewManager(Config{Workers: 1, ShardSize: 16})
	plan, err := scenario.NewPlan(overlapSpec(92, 2, 4)) // 4 cells
	if err != nil {
		t.Fatal(err)
	}
	fake := func(c scenario.CellJob) CellResult {
		return CellResult{Hash: c.Hash, Metrics: scenario.RunMetrics{TasksDone: 7, Seed: c.Seed}}
	}
	first := &scriptedBackend{name: "flaky", fn: func(_ context.Context, _ *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error) {
		out := make([]CellResult, len(cells))
		for i := range cells[:2] {
			out[i] = fake(cells[i]) // two cells finished before the failure
		}
		return out, errors.New("connection lost")
	}}
	var retried []scenario.CellJob
	second := &scriptedBackend{name: "solid", fn: func(_ context.Context, _ *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error) {
		retried = append(retried, cells...)
		out := make([]CellResult, len(cells))
		for i, c := range cells {
			out[i] = fake(c)
		}
		return out, nil
	}}
	m.setBackends(first, second)

	crs, err := m.runShard(context.Background(), 0, plan, plan.Cells)
	if err != nil {
		t.Fatalf("runShard failed despite a healthy second backend: %v", err)
	}
	if len(crs) != len(plan.Cells) {
		t.Fatalf("runShard returned %d results for %d cells", len(crs), len(plan.Cells))
	}
	for i, cr := range crs {
		if cr.Hash != plan.Cells[i].Hash || cr.Err != nil || cr.Metrics.TasksDone != 7 {
			t.Fatalf("result %d malformed: %+v", i, cr)
		}
	}
	if len(retried) != 2 {
		t.Fatalf("second backend re-ran %d cells, want only the 2 the first backend never finished", len(retried))
	}
	for _, c := range retried {
		if c.Hash == plan.Cells[0].Hash || c.Hash == plan.Cells[1].Hash {
			t.Errorf("cell %s was retried although the first backend completed it", c.Hash)
		}
	}
	// The partial results were banked when the first backend failed, so
	// they serve cache probes even while the retry is still out.
	m.mu.Lock()
	cached, missing := m.takeCells(plan.Cells[:2])
	m.mu.Unlock()
	if len(cached) != 2 || len(missing) != 0 {
		t.Errorf("banked partial results: %d cached / %d missing, want 2 / 0", len(cached), len(missing))
	}
}

// TestLRUGuardsNonPositiveCap pins the satellite bugfix: a non-positive
// capacity used to evict every entry at insert (silent 100% miss rate);
// now it fails construction, and cap 1 keeps exactly the newest entry.
func TestLRUGuardsNonPositiveCap(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newLRUCache(%d) did not panic", capacity)
				}
			}()
			newLRUCache[int](capacity)
		}()
	}
	c := newLRUCache[int](1)
	c.Add("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("cap-1 cache dropped the entry it just inserted")
	}
	c.Add("b", 2)
	if _, ok := c.Get("a"); ok {
		t.Error("cap-1 cache kept the evicted entry")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Error("cap-1 cache dropped the newest entry")
	}
}

// TestPanickingCellFailsItsJobOnly: a cell whose simulation panics must
// become that cell's error — naming the cell, the panic value and the
// request id — and fail its job through the ordinary failed-cell path,
// leaving the manager serving: the next job succeeds with the reference
// fingerprint. The panicked cell's scratch state is mid-run garbage, so it
// must not be handed to a later cell.
func TestPanickingCellFailsItsJobOnly(t *testing.T) {
	m := NewManager(Config{Workers: 1, ShardSize: 1})
	realRun := m.local.runCell
	var poisoned *scenario.CellState
	m.local.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		if poisoned != nil && st == poisoned {
			t.Error("a panicked cell's scratch state was recycled")
		}
		if p.Spec.Name == "panics" && c.Point == 1 {
			poisoned = st
			var boom []int
			_ = boom[3] // a runtime error, like the simulator's own invariant panics
		}
		return realRun(p, st, c)
	}
	bad := overlapSpec(92, 2, 4)
	bad.Name = "panics"
	j, _, err := m.submit(bad, "req-7")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateFailed {
		t.Fatalf("job with a panicking cell finished %v, want failed", j.State())
	}
	_, _, _, err = j.Result()
	for _, want := range []string{"at P4 (rep 0)", "index out of range [3]", `"req-7"`} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("job error %q does not name %s", err, want)
		}
	}
	if got := m.mx.cellPanics.Value(); got == 0 {
		t.Error("asymd_cell_panics_total did not move")
	}

	good := overlapSpec(93, 2, 4)
	j2, _, err := m.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	_, fp, _, err := j2.Result()
	if err != nil {
		t.Fatalf("job after a panicked one: %v", err)
	}
	if fp != scenario.MustRun(good).Fingerprint() {
		t.Error("job after a panicked one produced a wrong fingerprint")
	}
}

// TestLocalBackendReusesStatesAcrossJobs: worker scratch outlives the job —
// successive Execute calls on one backend run on the executor's workers'
// own CellStates instead of building fresh ones per job.
func TestLocalBackendReusesStatesAcrossJobs(t *testing.T) {
	const workers = 2
	b := newLocalBackend(workers)
	var mu sync.Mutex
	seen := map[*scenario.CellState]int{}
	b.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		mu.Lock()
		seen[st]++
		mu.Unlock()
		return scenario.RunMetrics{TasksDone: 1}, nil
	}
	for job := 0; job < 5; job++ {
		plan, err := scenario.NewPlan(overlapSpec(uint64(100+job), 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Execute(context.Background(), plan, plan.Cells); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) == 0 || len(seen) > workers {
		t.Fatalf("5 jobs × 4 cells ran on %d distinct states, want 1..%d", len(seen), workers)
	}
}
