package service

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

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
// metrics behind it, spelled out, are the original's line for line. The
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
	text := func(id string) string {
		j, _ := m.Job(id)
		_, body, _ := strings.Cut(j.result.FingerprintText(), "\n")
		return body
	}
	if text(st.ID) != text(first.ID) {
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
	if got := m.CellRuns(); got != 4 {
		t.Errorf("cell runs = %d, want the warm-up's 4", got)
	}
}

// TestDoneAtSubmitTakesNoSlot: with the one admission slot held by a job whose
// cells block, a fully cached submission is still answered done — it takes no
// slot — while a partially cached one queues, holding no claim on any cell
// until it is admitted: a queued job that claimed cells could deadlock jobs
// holding every slot and waiting on those cells.
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
	if st := jr.Snapshot(); st.State != "done" || st.CellHits != 4 {
		t.Errorf("fully cached submission behind a held slot: %+v, want done with 4 hits", st)
	}

	partial := overlapSpec(71, 2, 4, 8) // warm's 4 cells and 2 new ones
	jp, _, err := m.Submit(partial)
	if err != nil {
		t.Fatal(err)
	}
	if jp.State() != StateQueued {
		t.Fatalf("partially cached submission is %v, want queued", jp.State())
	}
	plan, err := scenario.NewPlan(partial)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	for _, c := range plan.Cells {
		if _, ok := m.pending[c.Hash]; ok {
			t.Errorf("queued job's cell %s is pending before admission", plan.CellLabel(c))
		}
	}
	m.mu.Unlock()

	close(release)
	waitDone(t, jb)
	waitDone(t, jp)
	if st := jp.Snapshot(); st.State != "done" || st.CellHits != 4 || st.CellMisses != 2 {
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
	<-started // dup-first's cells are pending, not cached
	ja, _, err := m.Submit(named("dup-async"))
	if err != nil {
		t.Fatal(err)
	}
	if ja.State() != StateQueued {
		t.Fatalf("twin submitted while its cells simulate is %v, want queued", ja.State())
	}
	close(release)
	waitDone(t, jf)
	waitDone(t, ja)

	ji, _, err := m.Submit(named("dup-inline"))
	if err != nil {
		t.Fatal(err)
	}
	async, inline := ja.Snapshot(), ji.Snapshot()
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
	lru := func() ([]string, int64) {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.cells.Keys(), m.mx.cellEvict.Value()
	}
	keys0, evict0 := lru()
	var queued []*Job
	for _, pts := range [][]int{{2, 6}, {4, 6}, {2, 4, 6}} {
		j, _, err := m.Submit(overlapSpec(81, pts...))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	if keys, evict := lru(); !reflect.DeepEqual(keys, keys0) || evict != evict0 {
		t.Errorf("queued submissions moved the cell LRU:\n got %v (%d evictions)\nwant %v (%d)", keys, evict, keys0, evict0)
	}
	close(release)
	waitDone(t, jb)
	for _, j := range queued {
		waitDone(t, j)
	}

	// The sequential half, against a model of the protocol.
	m = NewManager(Config{Workers: 1, CellCacheSize: 6})
	model := newLRUCache[struct{}](6)
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
	keys, evict := lru()
	if modelEvict == 0 {
		t.Fatal("the sequence evicted nothing; it would prove little")
	}
	if !reflect.DeepEqual(keys, model.Keys()) || evict != modelEvict {
		t.Errorf("cell LRU after the sequence:\n got %v (%d evictions)\nwant %v (%d)", keys, evict, model.Keys(), modelEvict)
	}
}
