package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"dynasym/internal/metrics"
	"dynasym/internal/scenario"
)

// scrape fetches GET /metrics and returns the exposition body.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// exposition renders the node's registry as GET /metrics does.
func exposition(m *Manager) string {
	rec := httptest.NewRecorder()
	m.reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// gaugeValue reads one gauge series from the node's registry.
func gaugeValue(t *testing.T, m *Manager, series string) int64 {
	t.Helper()
	return int64(metricValue(t, exposition(m), series))
}

// metricValue extracts one series' sample from an exposition body;
// series is the full name including any label set.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad sample %q: %v", series, rest, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, body)
	return 0
}

// TestMetricsExposition runs one job end to end and checks the request
// path showed up in /metrics: lifecycle counters, cache traffic, pool
// sizing and the latency histograms.
func TestMetricsExposition(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	j, _, err := m.Submit(tinySpec(71))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	doc := j.doc
	// Resubmit: an absorbed submission must move the absorbed counter.
	if _, existing, err := m.Submit(tinySpec(71)); err != nil || !existing {
		t.Fatalf("resubmit: existing=%v err=%v", existing, err)
	}

	body := scrape(t, srv.URL)
	for series, want := range map[string]float64{
		"asymd_jobs_submitted_total": 2,
		"asymd_jobs_absorbed_total":  1,
		"asymd_jobs_done_total":      1,
		"asymd_jobs_failed_total":    0,
		"asymd_jobs_queued":          0,
		"asymd_jobs_running":         0,
		"asymd_pool_workers":         2,
		"asymd_pool_busy_workers":    0,
	} {
		if got := metricValue(t, body, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if runs := metricValue(t, body, "asymd_cell_runs_total"); runs <= 0 {
		t.Errorf("asymd_cell_runs_total = %v, want > 0", runs)
	}
	if misses := metricValue(t, body, "asymd_cell_cache_misses_total"); misses <= 0 {
		t.Errorf("asymd_cell_cache_misses_total = %v, want > 0", misses)
	}
	// Cache occupancy: one finished job with its trace and its plan, every
	// simulated cell banked, nothing rendered, and the cell cache's byte
	// gauge equal to the arithmetic size of what it holds.
	cells := metricValue(t, body, "asymd_cell_cache_misses_total")
	for series, want := range map[string]float64{
		`asymd_cache_entries{cache="job"}`:      1,
		`asymd_cache_entries{cache="cell"}`:     cells,
		`asymd_cache_entries{cache="trace"}`:    1,
		`asymd_cache_entries{cache="simtrace"}`: 0,
		`asymd_cache_entries{cache="plan"}`:     1,
	} {
		if got := metricValue(t, body, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if n := metricValue(t, body, `asymd_cache_entries{cache="compiled"}`); n < 1 {
		t.Errorf(`asymd_cache_entries{cache="compiled"} = %v, want >= 1`, n)
	}
	res, _, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(len(res.Runs)) * summaryBytes
	if got := metricValue(t, body, "asymd_cell_cache_bytes"); got != float64(wantBytes) || wantBytes == 0 {
		t.Errorf("asymd_cell_cache_bytes = %v, want %d", got, wantBytes)
	}
	// The job cache's byte gauge is the one cached job's one document, and
	// keeping it through a drop and a re-count allocates nothing.
	if got := metricValue(t, body, "asymd_job_cache_bytes"); got != float64(len(doc)) || len(doc) == 0 {
		t.Errorf("asymd_job_cache_bytes = %v, want the document's %d", got, len(doc))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m.cache.OnDrop(j)
		m.jobBytes += int64(len(j.doc))
		m.mx.jobCacheBytes.Set(m.jobBytes)
	}); allocs != 0 || gaugeValue(t, m, "asymd_job_cache_bytes") != int64(len(doc)) {
		t.Errorf("a job-cache byte update allocates %.1f times and leaves %d, want 0 and %d", allocs, gaugeValue(t, m, "asymd_job_cache_bytes"), len(doc))
	}
	// /v1/healthz reads the very counters /metrics exposes.
	var hz struct {
		Stats Stats `json:"stats"`
	}
	if code := getJSON(t, srv.URL+"/v1/healthz", &hz); code != 200 {
		t.Fatalf("healthz: HTTP %d", code)
	}
	for series, got := range map[string]int64{
		"asymd_jobs_done_total":         hz.Stats.EngineRuns,
		"asymd_cell_cache_hits_total":   hz.Stats.CellHits,
		"asymd_cell_cache_misses_total": hz.Stats.CellMisses,
		"asymd_cell_runs_total":         hz.Stats.CellRuns,
	} {
		if want := metricValue(t, body, series); float64(got) != want {
			t.Errorf("healthz reports %d where /metrics %s = %v", got, series, want)
		}
	}
	// Histogram plumbing: the job-run histogram saw exactly one job, the
	// +Inf bucket agrees, and the sum is positive.
	if n := metricValue(t, body, "asymd_job_run_seconds_count"); n != 1 {
		t.Errorf("asymd_job_run_seconds_count = %v, want 1", n)
	}
	if n := metricValue(t, body, `asymd_job_run_seconds_bucket{le="+Inf"}`); n != 1 {
		t.Errorf(`asymd_job_run_seconds +Inf bucket = %v, want 1`, n)
	}
	if s := metricValue(t, body, "asymd_job_run_seconds_sum"); s <= 0 {
		t.Errorf("asymd_job_run_seconds_sum = %v, want > 0", s)
	}
	// The job's one shard was one executor batch: its effective workers
	// lie in (0, pool size], the buckets step by quarters from 1 up to the
	// pool size, and an update allocates nothing.
	if n := metricValue(t, body, "asymd_pool_batch_parallelism_count"); n != 1 {
		t.Errorf("asymd_pool_batch_parallelism_count = %v, want 1", n)
	}
	if p := metricValue(t, body, "asymd_pool_batch_parallelism_sum"); p <= 0 || p > 2 {
		t.Errorf("asymd_pool_batch_parallelism_sum = %v for one batch on 2 workers, want in (0, 2]", p)
	}
	for _, le := range []string{"1", "1.25", "1.5", "1.75", "2"} {
		metricValue(t, body, `asymd_pool_batch_parallelism_bucket{le="`+le+`"}`)
	}
	if strings.Contains(body, `asymd_pool_batch_parallelism_bucket{le="2.25"}`) {
		t.Error("asymd_pool_batch_parallelism has a bucket above the pool size")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.mx.poolParallelism.Observe(1.46) }); allocs != 0 {
		t.Errorf("a parallelism update allocates %.1f times, want 0", allocs)
	}
}

// TestRuntimeMetricsExposition: a scrape reads the Go runtime itself — the
// heap its objects hold, the heap the last GC marked live, completed GC
// cycles, live goroutines — and a cycle run between two scrapes shows in the
// second.
func TestRuntimeMetricsExposition(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	body := scrape(t, srv.URL)
	if v := metricValue(t, body, "asymd_go_heap_objects_bytes"); v <= 0 {
		t.Errorf("asymd_go_heap_objects_bytes = %v, want > 0", v)
	}
	if v := metricValue(t, body, "asymd_go_goroutines"); v < 1 {
		t.Errorf("asymd_go_goroutines = %v, want >= 1", v)
	}
	cycles := metricValue(t, body, "asymd_go_gc_cycles_total")
	runtime.GC()
	after := scrape(t, srv.URL)
	if v := metricValue(t, after, "asymd_go_gc_cycles_total"); v <= cycles {
		t.Errorf("asymd_go_gc_cycles_total = %v after a forced cycle, was %v", v, cycles)
	}
	if v := metricValue(t, after, "asymd_go_heap_live_bytes"); v <= 0 {
		t.Errorf("asymd_go_heap_live_bytes = %v after a forced cycle, want > 0", v)
	}
}

// TestMetricsScrapesRaceJobs hammers /metrics from several goroutines
// while jobs execute and a flaky peer trips its breaker — the race
// detector owns the assertions; the final scrape sanity-checks totals.
func TestMetricsScrapesRaceJobs(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8, FailThreshold: 1})
	flaky := &flakyBackend{}
	m.setBackends(flaky, m.local)

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	const jobs = 4
	var wg sync.WaitGroup
	for seed := uint64(0); seed < jobs; seed++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			j, _, err := m.Submit(tinySpec(800 + seed))
			if err != nil {
				t.Error(err)
				return
			}
			waitDone(t, j)
		}(seed)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	body := scrape(t, srv.URL)
	if done := metricValue(t, body, "asymd_jobs_done_total"); done != jobs {
		t.Errorf("asymd_jobs_done_total = %v, want %d", done, jobs)
	}
	// The flaky peer failed every attempt it was handed, so failovers and
	// per-peer failures moved, and its breaker opened at least once.
	if fo := metricValue(t, body, "asymd_shard_failovers_total"); fo <= 0 {
		t.Errorf("asymd_shard_failovers_total = %v, want > 0", fo)
	}
	if pf := metricValue(t, body, `asymd_peer_failures_total{peer="flaky"}`); pf <= 0 {
		t.Errorf("peer failures = %v, want > 0", pf)
	}
	if tr := metricValue(t, body, `asymd_breaker_transitions_total{peer="flaky",to="down"}`); tr <= 0 {
		t.Errorf("transitions to down = %v, want > 0", tr)
	}
}

// TestBreakerStateGauge drives a peer down and back up with the breaker
// state machine and checks the gauge tracks it.
func TestBreakerStateGauge(t *testing.T) {
	m := NewManager(Config{Workers: 1, FailThreshold: 2})
	m.setBackends(&flakyBackend{}, m.local)
	var h *backendHandle
	for _, cand := range m.handles {
		if cand.breaker {
			h = cand
		}
	}
	if h == nil {
		t.Fatal("no breaker-tracked handle")
	}
	gauge := func() int64 { return gaugeValue(t, m, `asymd_breaker_state{peer="flaky"}`) }

	if got := gauge(); got != int64(peerHealthy) {
		t.Fatalf("initial breaker gauge = %v, want %d", got, peerHealthy)
	}
	m.report(h, fmt.Errorf("boom"))
	m.report(h, fmt.Errorf("boom"))
	if got := gauge(); got != int64(peerDown) {
		t.Fatalf("breaker gauge after trip = %v, want %d", got, peerDown)
	}
	m.report(h, nil)
	if got := gauge(); got != int64(peerHealthy) {
		t.Fatalf("breaker gauge after recovery = %v, want %d", got, peerHealthy)
	}
	if tr := metricValue(t, exposition(m), `asymd_breaker_transitions_total{peer="flaky",to="healthy"}`); tr != 1 {
		t.Errorf("transitions to healthy = %v, want 1", tr)
	}
}

// chromeEvt mirrors one Chrome trace-event for assertions; the export
// is a top-level JSON array of these.
type chromeEvt struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestTraceEndpoint runs a job whose every cell crosses the wire to a
// worker node and checks GET /v1/jobs/{id}/trace exports a merged
// coordinator+worker timeline: job phases, shard dispatch slices, and
// the worker's simulate slices grafted into the attempt window.
func TestTraceEndpoint(t *testing.T) {
	_, wsrv := newTestServer(t, Config{Workers: 2})
	coord, csrv := newTestServer(t, Config{Workers: 2, ShardSize: 2})
	coord.setBackends(newRemoteBackend(wsrv.URL, nil)) // no local pool: all cells remote

	j, _, err := coord.submit(tinySpec(31), "trace-req-7")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	st := j.snapshot()
	if st.RequestID != "trace-req-7" {
		t.Errorf("snapshot request_id = %q, want trace-req-7", st.RequestID)
	}
	wantURL := "/v1/jobs/" + j.Hash + "/trace"
	if st.TraceURL != wantURL {
		t.Fatalf("snapshot trace_url = %q, want %q", st.TraceURL, wantURL)
	}

	n := traceSlices(t, csrv.URL+st.TraceURL)
	// tinySpec has 4 cells at ShardSize 2 → at least 2 shard attempts,
	// each answered by the worker with simulate spans to graft.
	if n["shard"] < 2 {
		t.Errorf("trace has %d shard slices, want >= 2", n["shard"])
	}
	if n["simulate"] == 0 {
		t.Error("trace has no worker simulate slices (grafting failed)")
	}
}

// traceSlices fetches a job trace, checks the shape every job's has — lane
// metadata, complete slices of non-negative length, one plan, one queued and
// one merge slice, a backend on every shard attempt — and counts the slices:
// "plan", "queued", "merge", "shard" (dispatch attempts) and "simulate".
func traceSlices(t *testing.T, url string) map[string]int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	var events []chromeEvt
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	n := map[string]int{}
	for _, ev := range events {
		switch {
		case ev.Ph == "M":
			n["lanes"]++
			continue
		case ev.Ph != "X":
			t.Errorf("unexpected event phase %q", ev.Ph)
			continue
		case ev.Dur < 0:
			t.Errorf("event %q has negative duration %v", ev.Name, ev.Dur)
		}
		switch {
		case ev.Name == "plan" || ev.Name == "queued" || ev.Name == "merge":
			n[ev.Name]++
		case ev.Cat == "dispatch" && strings.HasPrefix(ev.Name, "shard "):
			n["shard"]++
			if ev.Args["backend"] == nil {
				t.Errorf("shard slice %q missing backend arg", ev.Name)
			}
		case ev.Cat == "simulate":
			n["simulate"]++
		}
	}
	if n["lanes"] == 0 {
		t.Error("trace has no thread_name lane metadata")
	}
	if n["plan"] != 1 || n["queued"] != 1 || n["merge"] != 1 {
		t.Errorf("trace has %d plan, %d queued and %d merge slices, want 1 each", n["plan"], n["queued"], n["merge"])
	}
	return n
}

// TestRequestIDPropagation submits over HTTP with an explicit
// X-Request-ID and checks it is echoed in the response header and
// status body, and rides the job's shard POSTs to the worker.
func TestRequestIDPropagation(t *testing.T) {
	worker := NewManager(Config{Workers: 1})
	wh := worker.Handler(slog.New(slog.NewTextHandler(io.Discard, nil)))
	var mu sync.Mutex
	var seen []string
	wsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			mu.Lock()
			seen = append(seen, r.Header.Get("X-Request-ID"))
			mu.Unlock()
		}
		wh.ServeHTTP(w, r)
	}))
	defer wsrv.Close()

	coord, csrv := newTestServer(t, Config{Workers: 1, ShardSize: 2})
	coord.setBackends(newRemoteBackend(wsrv.URL, nil))

	sj, err := tinySpec(33).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, csrv.URL+"/v1/jobs", strings.NewReader(fmt.Sprintf(`{"spec": %s}`, sj)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "corr-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "corr-42" {
		t.Errorf("response X-Request-ID = %q, want corr-42", got)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RequestID != "corr-42" {
		t.Errorf("status request_id = %q, want corr-42", st.RequestID)
	}

	pollDone(t, csrv.URL, st.ID)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("worker served no shards")
	}
	for _, id := range seen {
		if id != "corr-42" {
			t.Errorf("worker saw X-Request-ID %q, want corr-42", id)
		}
	}
}

// TestRequestIDMinted checks a submission without an X-Request-ID gets
// one minted and returned.
func TestRequestIDMinted(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	st, code := postJob(t, srv.URL, `{"family": "burst-sweep", "scale": 0.001}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if st.RequestID == "" {
		t.Error("minted request_id missing from status")
	}
	pollDone(t, srv.URL, st.ID)
}

// TestStatusWriterFlusher checks the logging wrapper passes Flush
// through (and exposes Unwrap for http.ResponseController) instead of
// silently swallowing streaming.
func TestStatusWriterFlusher(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	var w http.ResponseWriter = sw
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
	if err := http.NewResponseController(sw).Flush(); err != nil {
		t.Errorf("ResponseController.Flush: %v", err)
	}
	if sw.Unwrap() != http.ResponseWriter(rec) {
		t.Error("Unwrap does not return the wrapped writer")
	}
	// A non-flushing underlying writer must not panic.
	(&statusWriter{ResponseWriter: nonFlusher{}}).Flush()
}

type nonFlusher struct{ http.ResponseWriter }

func (nonFlusher) Header() http.Header         { return http.Header{} }
func (nonFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (nonFlusher) WriteHeader(int)             {}

// TestPprofGate checks the profiler mounts only when asked for.
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof: status %d, want 404", resp.StatusCode)
	}
	_, on := newTestServer(t, Config{Workers: 1, EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d, want 200", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(b, []byte("goroutine")) {
		t.Error("pprof index does not list profiles")
	}
}

// TestTraceRetentionEvicts checks finished traces fall out of the
// retention LRU oldest-first.
func TestTraceRetentionEvicts(t *testing.T) {
	m := NewManager(Config{Workers: 1, TraceRetention: 1})
	j1, _, err := m.Submit(tinySpec(41))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if _, ok := m.jobTrace(j1.Hash); !ok {
		t.Fatal("finished job's trace not retained")
	}
	j2, _, err := m.Submit(tinySpec(42))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if _, ok := m.jobTrace(j1.Hash); ok {
		t.Error("oldest trace survived past retention capacity")
	}
	if _, ok := m.jobTrace(j2.Hash); !ok {
		t.Error("newest trace missing from retention")
	}
}

// TestJobCacheBytesTracksEviction: asymd_job_cache_bytes is the summed
// document length of exactly the jobs the LRU holds — an evicted or replaced
// job takes its bytes along — and a full default cache of 21-cell jobs, the
// 67 MB of the fingerprint-text days, stays under half a megabyte.
func TestJobCacheBytesTracksEviction(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	f, _ := scenario.Lookup("burst-sweep")
	var last *Job
	for i := 0; i < m.cfg.CacheSize+3; i++ {
		spec := f.Spec(0.05) // one grid under many names: only the first job simulates
		spec.Name = fmt.Sprintf("cache-bytes-%d", i)
		j, _, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		last = j
	}
	held := func() (sum int64, lens map[int]bool) {
		m.mu.Lock()
		defer m.mu.Unlock()
		lens = map[int]bool{}
		for _, h := range m.cache.Keys() {
			j, _ := m.cache.Peek(h)
			sum += int64(len(j.doc))
			lens[len(j.doc)] = true
		}
		return sum, lens
	}
	want, lens := held()
	if len(lens) < 2 {
		t.Fatalf("every cached document is the same length (%v); the sum below would prove little", lens)
	}
	if got := gaugeValue(t, m, "asymd_job_cache_bytes"); got != want || m.mx.jobEvict.Value() != 3 {
		t.Errorf("job bytes gauge = %d after %d evictions, want %d (the retained documents) after 3", got, m.mx.jobEvict.Value(), want)
	}
	if n := gaugeValue(t, m, `asymd_cache_entries{cache="job"}`); n != int64(m.cfg.CacheSize) || want >= 512<<10 {
		t.Errorf("%d cached 21-cell jobs hold %d document bytes, want a full cache of %d under 512 KB", n, want, m.cfg.CacheSize)
	}

	// Replacement under the key drops the old job's bytes.
	m.mu.Lock()
	m.cache.Add(last.Hash, &Job{Hash: last.Hash})
	m.mu.Unlock()
	if after, _ := held(); m.jobBytes != after || after != want-int64(len(last.doc)) {
		t.Errorf("job bytes = %d after the newest job was replaced by one without a document, want %d", m.jobBytes, want-int64(len(last.doc)))
	}
}

// TestCellCacheGaugesTrackEviction: the occupancy gauges follow the cell
// LRU through eviction and re-banking — entries stop at capacity, and bytes
// are exactly the retained entries times the size of a summary, which holds
// no pointer (TestCachedCellFootprint) — and keeping them costs no
// allocation per update.
func TestCellCacheGaugesTrackEviction(t *testing.T) {
	m := NewManager(Config{Workers: 1, CellCacheSize: 3})
	check := func(when string, entries int64) {
		t.Helper()
		if got := gaugeValue(t, m, `asymd_cache_entries{cache="cell"}`); got != entries {
			t.Errorf("%s: cell entries gauge = %d, want %d", when, got, entries)
		}
		if got, want := gaugeValue(t, m, "asymd_cell_cache_bytes"), entries*int64(unsafe.Sizeof(scenario.RunSummary{})); got != want {
			t.Errorf("%s: cell bytes gauge = %d, want %d entries of %d bytes", when, got, entries, unsafe.Sizeof(scenario.RunSummary{}))
		}
	}
	// A four-cell job through a three-cell cache evicts one.
	j, _, err := m.Submit(tinySpec(83))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if _, fp, _, err := j.Result(); err != nil || fp != scenario.MustRun(tinySpec(83)).Fingerprint() {
		t.Fatalf("err=%v, or a fingerprint unlike the direct run's", err)
	}
	if n := m.mx.cellEvict.Value(); n != 1 {
		t.Errorf("%d evictions, want 1", n)
	}
	check("after a job", 3)

	cell := func(i int) CellResult {
		rm := scenario.RunMetrics{TasksDone: int64(i), CoreBusy: make([]float64, i+1)}
		rm.Iters.Append(metrics.IterStat{Iter: i}, make([]metrics.PlaceCount, 2*i))
		return CellResult{Hash: fmt.Sprintf("cell-%d", i), Summary: rm.Summary()}
	}
	var crs []CellResult
	for i := 0; i < 5; i++ {
		crs = append(crs, cell(i))
	}
	m.bankCells(crs)
	m.bankCells(crs[4:]) // re-banking replaces, it must not double-count
	check("after banking five cells", 3)
	if n := m.mx.cellEvict.Value(); n != 6 {
		t.Errorf("%d evictions, want 6", n)
	}

	allocs := testing.AllocsPerRun(100, func() {
		m.mx.cellEntries.Set(int64(m.cells.Len()))
		m.mx.cellCacheBytes.Set(int64(m.cells.Len()) * summaryBytes)
	})
	if allocs != 0 {
		t.Errorf("a gauge update costs %.0f allocs, want 0", allocs)
	}
}
