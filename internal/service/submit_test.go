package service

import (
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dynasym/internal/lru"
	"dynasym/internal/scenario"
)

// specBody is the POST /v1/jobs document of a raw spec.
func specBody(t *testing.T, spec scenario.Spec) string {
	t.Helper()
	sj, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"spec": %s}`, sj)
}

// blockNamed makes the manager's cells of specs named name wait for release
// (each announcing itself on started first); every other cell runs as usual.
func blockNamed(m *Manager, name string) (started chan struct{}, release chan struct{}) {
	started, release = make(chan struct{}, 64), make(chan struct{})
	realRun := m.local.runCell
	m.local.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		if p.Spec.Name == name {
			started <- struct{}{}
			<-release
		}
		return realRun(p, st, c)
	}
	return started, release
}

// TestRenamedSpecDoneInSubmitReply: a renamed copy of a finished spec is a new
// job whose every cell is cached, so its POST reply — still a 202 — is already
// "done" with a result URL, and the result is there to GET at once. The
// fingerprint hashes the name, so it is the renamed spec's direct-run one; the
// summaries behind it, digests included, are the original's. The
// counters move as they do for a job that queued.
func TestRenamedSpecDoneInSubmitReply(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2})
	orig := tinySpec(61)
	first, code := postJob(t, srv.URL, specBody(t, orig))
	if code != http.StatusAccepted {
		t.Fatalf("first POST: status %d, want 202", code)
	}
	if st := pollDone(t, srv.URL, first.ID); st.State != "done" {
		t.Fatalf("first job finished %q: %s", st.State, st.Error)
	}
	before := scrape(t, srv.URL)

	renamed := orig
	renamed.Name = "service-tiny-renamed"
	st, code := postJob(t, srv.URL, specBody(t, renamed))
	if code != http.StatusAccepted {
		t.Fatalf("renamed POST: status %d, want 202 (a new job)", code)
	}
	if st.State != "done" || st.ResultURL != "/v1/results/"+st.ID || st.CellsTotal != 4 ||
		st.CellHits != st.CellsTotal || st.CellsDone != st.CellsTotal || st.CellMisses != 0 {
		t.Fatalf("renamed POST reply %+v, want done with a result URL and 4/4 cells from the cache", st)
	}
	var res ResultResponse
	if code := getJSON(t, srv.URL+st.ResultURL, &res); code != http.StatusOK {
		t.Fatalf("GET the result named in the reply: status %d", code)
	}
	if res.Fingerprint != scenario.MustRun(renamed).Fingerprint() {
		t.Error("renamed job's fingerprint differs from a direct run of the renamed spec")
	}
	runs := func(id string) []scenario.RunSummary {
		j, _ := m.job(id)
		return j.result.Runs
	}
	if !slices.Equal(runs(st.ID), runs(first.ID)) {
		t.Error("renamed job's metrics differ from the original's")
	}

	after := scrape(t, srv.URL)
	for series, want := range map[string]float64{
		"asymd_jobs_submitted_total":       1,
		"asymd_jobs_absorbed_total":        0,
		"asymd_jobs_done_total":            1,
		"asymd_jobs_done_at_submit_total":  1,
		"asymd_cell_cache_hits_total":      4,
		"asymd_cell_cache_misses_total":    0,
		"asymd_cell_runs_total":            0,
		"asymd_job_queue_seconds_count":    1,
		"asymd_job_queue_seconds_sum":      0,
		`asymd_cache_entries{cache="job"}`: 1,
	} {
		if got := metricValue(t, after, series) - metricValue(t, before, series); got != want {
			t.Errorf("%s advanced by %v, want %v", series, got, want)
		}
	}
	if got := metricValue(t, after, "asymd_jobs_queued"); got != 0 {
		t.Errorf("asymd_jobs_queued = %v after a job done at submit, want 0", got)
	}
}

// TestDoneAtSubmitTraceShape: a job answered in its submit request keeps the
// trace shape of every job — one plan, one (empty) queued and one merge
// slice — and dispatches nothing.
func TestDoneAtSubmitTraceShape(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	first, _ := postJob(t, srv.URL, specBody(t, tinySpec(62)))
	pollDone(t, srv.URL, first.ID)
	renamed := tinySpec(62)
	renamed.Name = "trace-renamed"
	st, _ := postJob(t, srv.URL, specBody(t, renamed))
	if st.State != "done" {
		t.Fatalf("renamed job answered %q, want done", st.State)
	}
	if n := traceSlices(t, srv.URL+st.TraceURL); n["shard"] != 0 || n["simulate"] != 0 {
		t.Errorf("a job done at submit traced %d shard and %d simulate slices, want none", n["shard"], n["simulate"])
	}
}

// TestConcurrentDoneAtSubmit: many submitting goroutines complete jobs from
// the cell cache at once — each renamed copy twice, so one submission of
// every pair is absorbed, before or after the other planned — and every job
// is done with the direct run's fingerprint. The race detector owns the rest.
func TestConcurrentDoneAtSubmit(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	j0, _, err := m.Submit(tinySpec(64))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j0)
	const copies = 8
	jobs := make([]*Job, 2*copies)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := tinySpec(64)
			s.Name = fmt.Sprintf("concurrent-%d", i/2)
			j, _, err := m.Submit(s)
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 0; i < copies; i++ {
		s := tinySpec(64)
		s.Name = fmt.Sprintf("concurrent-%d", i)
		waitDone(t, jobs[2*i]) // its twin may have been absorbed while it merged
		if jobs[2*i] != jobs[2*i+1] {
			t.Errorf("copy %d: the two submissions got different jobs", i)
		}
		if _, fp, _, err := jobs[2*i].Result(); err != nil || fp != scenario.MustRun(s).Fingerprint() {
			t.Errorf("copy %d: err=%v, or a fingerprint unlike the direct run's", i, err)
		}
	}
	if got := m.mx.jobsDoneAtSubmit.Value(); got != copies {
		t.Errorf("jobs done at submit = %d, want %d", got, copies)
	}
	if got := m.mx.jobsAbsorbed.Value(); got != copies {
		t.Errorf("absorbed submissions = %d, want %d", got, copies)
	}
	if got := m.cellRuns(); got != 4 {
		t.Errorf("cell runs = %d, want the warm-up's 4", got)
	}
}

// TestDoneAtSubmitTakesNoSlot: with the one admission slot held by a job whose
// cells block, a fully cached submission is still answered done — it takes no
// slot — while a partially cached one queues and, once admitted, takes its
// cached cells and simulates the rest.
func TestDoneAtSubmitTakesNoSlot(t *testing.T) {
	m := NewManager(Config{Workers: 1, ShardSize: 1})
	started, release := blockNamed(m, "blocker")
	warm := overlapSpec(71, 2, 4)
	j0, _, err := m.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j0)

	blocker := overlapSpec(72, 2, 4)
	blocker.Name = "blocker"
	jb, _, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the blocker holds the slot and simulates

	renamed := warm
	renamed.Name = "renamed"
	jr, existing, err := m.Submit(renamed)
	if err != nil || existing {
		t.Fatalf("renamed submit: existing=%v err=%v", existing, err)
	}
	if st := jr.snapshot(); st.State != "done" || st.CellHits != 4 {
		t.Errorf("fully cached submission behind a held slot: %+v, want done with 4 hits", st)
	}

	partial := overlapSpec(71, 2, 4, 8) // warm's 4 cells and 2 new ones
	jp, _, err := m.Submit(partial)
	if err != nil {
		t.Fatal(err)
	}
	if jp.loadState() != stateQueued {
		t.Fatalf("partially cached submission is %v, want queued", jp.loadState())
	}

	close(release)
	waitDone(t, jb)
	waitDone(t, jp)
	if st := jp.snapshot(); st.State != "done" || st.CellHits != 4 || st.CellMisses != 2 {
		t.Errorf("partial job after admission: %+v, want done with 4 hits and 2 misses", st)
	}
	if _, fp, _, err := jp.Result(); err != nil || fp != scenario.MustRun(partial).Fingerprint() {
		t.Errorf("partial job: err=%v, or a fingerprint unlike the direct run's", err)
	}
}

// TestDuplicateHashCountsMatchAsyncPath: a grid whose two points share a cell
// hash reports the same progress and hit counts whether its cached cells are
// collected by submit or by a queued job's pass. The async twin queues behind
// a job simulating those cells, so its pass finds every one cached.
func TestDuplicateHashCountsMatchAsyncPath(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started, release := blockNamed(m, "dup-first")
	s := tinySpec(73)
	s.Points = []scenario.Point{{Label: "left", Parallelism: 4}, {Label: "right", Parallelism: 4}}
	named := func(name string) scenario.Spec {
		c := s
		c.Name = name
		return c
	}
	jf, _, err := m.Submit(named("dup-first"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // dup-first's cells are simulating, not cached
	ja, _, err := m.Submit(named("dup-async"))
	if err != nil {
		t.Fatal(err)
	}
	if ja.loadState() != stateQueued {
		t.Fatalf("twin submitted while its cells simulate is %v, want queued", ja.loadState())
	}
	close(release)
	waitDone(t, jf)
	waitDone(t, ja)

	ji, _, err := m.Submit(named("dup-inline"))
	if err != nil {
		t.Fatal(err)
	}
	async, inline := ja.snapshot(), ji.snapshot()
	if inline.State != "done" {
		t.Fatalf("cached twin answered %q, want done", inline.State)
	}
	if async.CellHits != async.CellsTotal || async.CellsTotal != 4 {
		t.Fatalf("async twin counted %d hits of %d cells; the setup should make every cell a hit of 4", async.CellHits, async.CellsTotal)
	}
	if inline.CellsTotal != async.CellsTotal || inline.CellHits != async.CellHits ||
		inline.CellsDone != async.CellsDone || inline.CellMisses != async.CellMisses {
		t.Errorf("inline counts %d/%d/%d/%d (total/hits/done/misses), async %d/%d/%d/%d",
			inline.CellsTotal, inline.CellHits, inline.CellsDone, inline.CellMisses,
			async.CellsTotal, async.CellHits, async.CellsDone, async.CellMisses)
	}
}

// TestDuplicateHashCountsOnSimulatingPath: a twin-point grid with nothing
// cached queues and simulates every grid position, the twin's too: each is a
// miss, and progress reaches the grid's size.
func TestDuplicateHashCountsOnSimulatingPath(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	s := tinySpec(74)
	s.Points = []scenario.Point{{Label: "left", Parallelism: 4}, {Label: "right", Parallelism: 4}}
	j, _, err := m.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	st := j.snapshot()
	if st.State != "done" || st.CellsTotal != 4 || st.CellMisses != st.CellsTotal || st.CellsDone != st.CellsTotal || st.CellHits != 0 {
		t.Errorf("twin-point job with nothing cached counted %+v, want done with 4 misses of 4 cells", st)
	}
	if got := m.cellRuns(); got != 4 {
		t.Errorf("cell runs = %d, want 4 (one per position)", got)
	}
	if _, fp, _, err := j.Result(); err != nil || fp != scenario.MustRun(s).Fingerprint() {
		t.Errorf("err=%v, or a fingerprint unlike the direct run's", err)
	}
}

// TestDoneAtSubmitLRUWithTwinPoints: a job done at submit moves the cell LRU
// as runJob's pass (takeCells) does — one Get per grid position, in plan
// order — also when two points share their parameters under different labels,
// so that the later one's cells repeat the earlier one's hashes.
func TestDoneAtSubmitLRUWithTwinPoints(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	s := tinySpec(75)
	s.Points = []scenario.Point{{Label: "left", Parallelism: 4}, {Label: "mid", Parallelism: 2}, {Label: "right", Parallelism: 4}}
	j0, _, err := m.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j0)
	s.Name = "twin-renamed"
	j, _, err := m.Submit(s)
	if err != nil || j.loadState() != stateDone {
		t.Fatalf("renamed twin-point grid: err=%v, or not done at submit", err)
	}
	plan, err := scenario.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	// The pass gets every position in plan order, repeats included: "right"
	// takes "left"'s hash again, so each policy's "left" cell ends up more
	// recent than its "mid" one. The LRU lists the most recent first.
	var want []string
	for _, pos := range [][3]int{{1, 0, 0}, {1, 1, 0}, {0, 0, 0}, {0, 1, 0}} {
		c, err := plan.Cell(pos[0], pos[1], pos[2])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, c.Hash)
	}
	m.mu.Lock()
	keys := m.cells.Keys()
	m.mu.Unlock()
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("cell LRU after the job done at submit:\n got %.12s\nwant %.12s", keys, want)
	}
	if st := j.snapshot(); st.CellHits != 6 || st.CellsDone != 6 || st.CellsTotal != 6 {
		t.Errorf("twin-point job counted %+v, want 6 hits of 6 cells", st)
	}
}

// TestSubmitProbeLeavesCellLRU: the probe submit makes of the cell cache
// has no side effect. Jobs that miss a cell queue without moving any cached
// cell's recency, and a sequence of partially overlapping jobs leaves the
// LRU order and eviction count the cell-cache protocol predicts: each job
// touches its cached cells in plan order, then its simulated cells enter.
func TestSubmitProbeLeavesCellLRU(t *testing.T) {
	m := NewManager(Config{Workers: 1, CellCacheSize: 8})
	started, release := blockNamed(m, "blocker")
	for _, seed := range []uint64{81, 82} {
		j, _, err := m.Submit(overlapSpec(seed, 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	blocker := overlapSpec(83, 2, 4)
	blocker.Name = "blocker"
	jb, _, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cellLRU := func() ([]string, int64) {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.cells.Keys(), m.mx.cellEvict.Value()
	}
	keys0, evict0 := cellLRU()
	var queued []*Job
	for _, pts := range [][]int{{2, 6}, {4, 6}, {2, 4, 6}} {
		j, _, err := m.Submit(overlapSpec(81, pts...))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	if keys, evict := cellLRU(); !reflect.DeepEqual(keys, keys0) || evict != evict0 {
		t.Errorf("queued submissions moved the cell LRU:\n got %v (%d evictions)\nwant %v (%d)", keys, evict, keys0, evict0)
	}
	close(release)
	waitDone(t, jb)
	for _, j := range queued {
		waitDone(t, j)
	}

	// The sequential half, against a model of the protocol.
	m = NewManager(Config{Workers: 1, CellCacheSize: 6})
	model := lru.New[struct{}](6)
	var modelEvict int64
	for i, pts := range [][]int{{2, 4}, {2, 6}, {4, 8}, {2, 6}, {2, 4, 6, 8}} {
		spec := overlapSpec(91, pts...)
		spec.Name = fmt.Sprintf("seq-%d", i) // a new job each, the repeated grid too
		plan, err := scenario.NewPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []string
		for _, c := range plan.Cells {
			if _, ok := model.Get(c.Hash); !ok {
				fresh = append(fresh, c.Hash)
			}
		}
		for _, h := range fresh {
			modelEvict += int64(model.Add(h, struct{}{}))
		}
		j, _, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	keys, evict := cellLRU()
	if modelEvict == 0 {
		t.Fatal("the sequence evicted nothing; it would prove little")
	}
	if !reflect.DeepEqual(keys, model.Keys()) || evict != modelEvict {
		t.Errorf("cell LRU after the sequence:\n got %v (%d evictions)\nwant %v (%d)", keys, evict, model.Keys(), modelEvict)
	}
}

// TestDoneAtSubmitAllocs is the allocation gate of a job the cell cache
// answers in full: a renamed burst-sweep@0.05, all 21 cells cached, submitted
// through Manager.Submit — key, plan, cache probe, merge, fingerprint and
// result document; no HTTP. Every allocation is work for the daemon's
// collector on each warm job, so the count may not creep back unseen. The
// bound is the count measured when it was set (67; 170 before the job was
// assembled from one array in plan order, its variants were filed only by
// running cells and its buffers were built only when needed; 302 before the
// spec was encoded once per submission, the cell keys shared their hash
// prefix and the preset platforms were built once) plus 10 %.
func TestDoneAtSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under -race")
	}
	const maxAllocs = 74
	m := NewManager(Config{Workers: 1})
	f, _ := scenario.Lookup("burst-sweep")
	spec := f.Spec(0.05)
	j0, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j0)
	const runs = 50
	names := make([]string, runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("allocs-%d", i)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := spec
		s.Name = names[next]
		next++
		j, existing, err := m.Submit(s)
		if err != nil || existing || j.loadState() != stateDone {
			t.Fatalf("renamed submission: existing=%v err=%v, want a new job done at submit", existing, err)
		}
	})
	t.Logf("%.0f allocations per job done at submit", allocs)
	if allocs > maxAllocs {
		t.Errorf("a job done at submit made %.0f allocations, want at most %d", allocs, maxAllocs)
	}
}
