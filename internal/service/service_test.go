package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dynasym/internal/core"
	"dynasym/internal/lru"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// tinySpec is a fast, deterministic spec; vary seed to vary the hash.
func tinySpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Name: "service-tiny",
		Workload: scenario.WorkloadSpec{Kind: scenario.Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul, Tasks: 200, Parallelism: 4,
		}},
		Policies: []core.Policy{core.RWS(), core.DAMC()},
		Points:   scenario.ParallelismPoints(2, 4),
		Seed:     seed,
	}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v", j.Hash, err)
	}
}

// TestSingleflightDedupe submits the same spec from N concurrent
// goroutines and checks they all share one job, one engine run, and one
// fingerprint.
func TestSingleflightDedupe(t *testing.T) {
	m := NewManager(Config{Workers: 2, CacheSize: 8})
	const n = 16
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := m.Submit(tinySpec(1))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < n; i++ {
		if jobs[i] != jobs[0] {
			t.Fatalf("submission %d got a different job (%s vs %s)", i, jobs[i].Hash, jobs[0].Hash)
		}
	}
	waitDone(t, jobs[0])
	if got := m.engineRuns(); got != 1 {
		t.Errorf("engine ran %d times for %d identical submissions, want 1", got, n)
	}
	if got := jobs[0].snapshot().CacheHits; got != n-1 {
		t.Errorf("job absorbed %d extra submissions, want %d", got, n-1)
	}
	_, fp, _, err := jobs[0].Result()
	if err != nil {
		t.Fatal(err)
	}
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
	// Every caller sees the same (only) fingerprint by sharing the job;
	// check it matches a direct engine run of the same spec.
	direct := scenario.MustRun(tinySpec(1))
	if fp != direct.Fingerprint() {
		t.Errorf("service fingerprint differs from direct engine run")
	}
}

// TestCacheHitSkipsRun checks a second submission of a finished spec is
// served from cache without re-simulation.
func TestCacheHitSkipsRun(t *testing.T) {
	m := NewManager(Config{Workers: 1, CacheSize: 8})
	j1, existing, err := m.Submit(tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("first submission reported existing")
	}
	waitDone(t, j1)
	j2, existing, err := m.Submit(tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if !existing {
		t.Error("second submission was not served from cache")
	}
	if j2 != j1 {
		t.Error("cache returned a different job")
	}
	if got := m.engineRuns(); got != 1 {
		t.Errorf("engine ran %d times, want 1", got)
	}
}

// TestLRUEvictionOrder drives the lru directly: least-recently-used falls
// out first, and Get refreshes recency.
func TestLRUEvictionOrder(t *testing.T) {
	c := lru.New[*Job](2)
	mk := func(h string) *Job { return &Job{Hash: h} }
	c.Add("a", mk("a"))
	c.Add("b", mk("b"))
	if _, ok := c.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.Add("c", mk("c")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; want LRU order a,c after refreshing a")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was evicted despite being refreshed")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing")
	}
	if got, want := fmt.Sprint(c.Keys()), "[c a]"; got != want {
		t.Errorf("recency order %s, want %s", got, want)
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
	// Peek must not refresh recency: peek a (the LRU), add d, a falls out.
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("Peek(a) missed")
	}
	c.Add("d", mk("d"))
	if _, ok := c.Get("a"); ok {
		t.Error("a survived eviction after only a Peek; Peek must not promote")
	}
}

// TestManagerEviction checks evicted results disappear from lookups and a
// resubmission re-runs.
func TestManagerEviction(t *testing.T) {
	m := NewManager(Config{Workers: 1, CacheSize: 2})
	var hashes []string
	for seed := uint64(10); seed < 13; seed++ {
		j, _, err := m.Submit(tinySpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		hashes = append(hashes, j.Hash)
	}
	if _, ok := m.job(hashes[0]); ok {
		t.Error("oldest job survived a capacity-2 cache after 3 inserts")
	}
	for _, h := range hashes[1:] {
		if _, ok := m.job(h); !ok {
			t.Errorf("job %s missing from cache", h)
		}
	}
	// Resubmitting the evicted spec must re-run, not error.
	j, existing, err := m.Submit(tinySpec(10))
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Error("evicted spec reported as cached")
	}
	waitDone(t, j)
	if got := m.engineRuns(); got != 4 {
		t.Errorf("engine ran %d times, want 4 (3 cold + 1 after eviction)", got)
	}
}

// TestFailedJobLifecycle injects an engine failure and checks the state,
// the error surface, and that identical resubmissions fail from cache.
func TestFailedJobLifecycle(t *testing.T) {
	m := NewManager(Config{Workers: 1, CacheSize: 2})
	boom := errors.New("engine exploded")
	m.local.runCell = func(*scenario.Plan, *scenario.CellState, scenario.CellJob) (scenario.RunMetrics, error) {
		return scenario.RunMetrics{}, boom
	}
	j, _, err := m.Submit(tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.loadState() != stateFailed {
		t.Fatalf("state %v, want failed", j.loadState())
	}
	if _, _, _, err := j.Result(); !errors.Is(err, boom) {
		t.Errorf("Result error = %v, want the engine error", err)
	}
	j2, existing, err := m.Submit(tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if !existing || j2 != j {
		t.Error("failed job was not served from cache")
	}
	if got := m.engineRuns(); got != 1 {
		t.Errorf("engine ran %d times, want 1", got)
	}
}

// TestSubmitValidates checks bad specs are rejected synchronously.
func TestSubmitValidates(t *testing.T) {
	m := NewManager(Config{})
	s := tinySpec(4)
	s.Policies = nil
	if _, _, err := m.Submit(s); err == nil {
		t.Error("empty policy set accepted")
	}
	if _, err := familySpec("no-such-family", 1, nil); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestShutdown drains in-flight jobs and rejects later submissions.
func TestShutdown(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	j, _, err := m.Submit(tinySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j.loadState(); st != stateDone && st != stateFailed {
		t.Errorf("shutdown returned with the in-flight job %s", st)
	}
	if _, _, err := m.Submit(tinySpec(6)); err == nil {
		t.Error("submission accepted after shutdown")
	}
}

// TestJobProgressCounters checks the engine progress hook feeds the job's
// counters to completion.
func TestJobProgressCounters(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	j, _, err := m.Submit(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	st := j.snapshot()
	want := int64(2 * 2) // policies × points, 1 rep
	if st.CellsTotal != want || st.CellsDone != want {
		t.Errorf("progress %d/%d, want %d/%d", st.CellsDone, st.CellsTotal, want, want)
	}
	if st.State != "done" {
		t.Errorf("state %q, want done", st.State)
	}
	if st.ResultURL == "" {
		t.Error("done job has no result URL")
	}
}

// TestDoneStateImpliesResult pins that the terminal state and the result
// become visible in one step: a poller that reads "done" from snapshot (as
// GET /v1/jobs/{id} does) must get the result from Result (as GET
// /v1/results/{id} does) — never "job … is done". A second goroutine spins
// on exactly that sequence while many short jobs finish.
func TestDoneStateImpliesResult(t *testing.T) {
	m := NewManager(Config{Workers: 1, CacheSize: 8})
	spec := tinySpec(0)
	spec.Policies = spec.Policies[:1]
	spec.Points = spec.Points[:1]
	for seed := uint64(1); seed <= 300; seed++ {
		spec.Seed = seed
		j, _, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		polled := make(chan error, 1)
		go func() {
			for j.snapshot().State != "done" {
				runtime.Gosched()
			}
			_, _, _, err := j.Result()
			polled <- err
		}()
		if err := <-polled; err != nil {
			t.Fatalf("job %d reported done without a result: %v", seed, err)
		}
		waitDone(t, j)
	}
}
