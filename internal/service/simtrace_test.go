package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dynasym/internal/scenario"
)

// getBody fetches a URL and returns status and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// The simtrace endpoint must serve a valid Chrome trace of any plan cell
// of a finished job: task ("X") slices plus counter ("C") lanes, rendered
// by deterministic re-execution and cached by cell hash.
func TestSimTraceEndpoint(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})

	spec := tinySpec(33)
	specJSON, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	st, code := postJob(t, srv.URL, fmt.Sprintf(`{"spec": %s}`, specJSON))
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	final := pollDone(t, srv.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("job finished as %q: %s", final.State, final.Error)
	}

	code, body := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/cells/0/simtrace")
	if code != http.StatusOK {
		t.Fatalf("GET simtrace: status %d: %s", code, body)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("simtrace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	counterLanes := map[string]bool{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ph == "C" {
			counterLanes[ev["name"].(string)] = true
		}
	}
	if phases["X"] == 0 || phases["C"] == 0 {
		t.Fatalf("simtrace phases %v: want task (X) and counter (C) events", phases)
	}
	for _, lane := range []string{"queue depth", "ready tasks", "core util"} {
		if !counterLanes[lane] {
			t.Fatalf("simtrace has no %q counter lane (lanes: %v)", lane, counterLanes)
		}
	}

	// The render cache counts the trace's bytes in its gauge.
	m.mu.Lock()
	cached := m.simtraceBytes
	m.mu.Unlock()
	if held := gaugeValue(t, m, `asymd_cache_bytes{cache="simtrace"}`); held < int64(len(body)) || held != cached {
		t.Fatalf("simtrace cache gauge %d, cache holds %d, the trace is %d bytes", held, cached, len(body))
	}

	// A second fetch is served from the render cache, byte-identical.
	renders := m.mx.simtraceRenders.Value()
	if renders != 1 {
		t.Fatalf("renders = %d after first fetch, want 1", renders)
	}
	code, again := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/cells/0/simtrace")
	if code != http.StatusOK || string(again) != string(body) {
		t.Fatalf("cached fetch: status %d, identical=%t", code, string(again) == string(body))
	}
	if got := m.mx.simtraceRenders.Value(); got != renders {
		t.Fatalf("cached fetch re-rendered (renders %d -> %d)", renders, got)
	}

	// Error mapping: unknown job is 404, an out-of-grid cell is 400.
	if code, _ := getBody(t, srv.URL+"/v1/jobs/nope/cells/0/simtrace"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	if code, _ := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/cells/9999/simtrace"); code != http.StatusBadRequest {
		t.Fatalf("bad cell index: status %d, want 400", code)
	}
	if code, _ := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/cells/x/simtrace"); code != http.StatusBadRequest {
		t.Fatalf("non-numeric cell index: status %d, want 400", code)
	}
}

// Sim-level gauges ride /metrics: after a job, the node reports the
// simulated task/steal/dispatch totals of the cells it banked.
func TestSimMetricsExposed(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	j, _, err := m.Submit(tinySpec(34))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if m.mx.simTasks.Value() == 0 {
		t.Fatal("asymd_sim_tasks_total is zero after a finished job")
	}
	code, body := getBody(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	for _, name := range []string{
		"asymd_sim_tasks_total", "asymd_sim_steals_total", "asymd_sim_dispatches_total",
		"asymd_sim_makespan_seconds", "asymd_sim_core_utilization", "asymd_simtrace_renders_total",
	} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics is missing %s", name)
		}
	}
}

// A sim-trace render simulates a cell, so it runs on the node's executor
// like any cell: with the only worker held it waits until the worker is
// released. It re-executes a banked cell, so cell_runs does not count it.
func TestSimTraceWaitsForAWorker(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	held, release := make(chan struct{}, 1), make(chan struct{})
	var released sync.Once
	releaseWorker := func() { released.Do(func() { close(release) }) }
	t.Cleanup(releaseWorker) // before the server's Close, which waits for the request
	realRun := m.local.runCell
	m.local.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		if p.Spec.Name == "hold" && c.Policy == 0 && c.Point == 0 {
			held <- struct{}{}
			<-release
		}
		return realRun(p, st, c)
	}
	traced, _, err := m.Submit(tinySpec(35))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, traced)
	runs := m.cellRuns()
	hold := tinySpec(36)
	hold.Name = "hold"
	holder, _, err := m.Submit(hold)
	if err != nil {
		t.Fatal(err)
	}
	<-held

	type reply struct {
		code int
		body []byte
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + traced.Hash + "/cells/0/simtrace")
		if err != nil {
			got <- reply{code: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- reply{resp.StatusCode, b}
	}()
	select {
	case r := <-got:
		t.Fatalf("sim-trace finished (status %d) while the only worker was held", r.code)
	case <-time.After(200 * time.Millisecond):
	}
	releaseWorker()
	select {
	case r := <-got:
		if r.code != http.StatusOK || !strings.Contains(string(r.body), `"ph":"X"`) {
			t.Fatalf("sim-trace after release: status %d: %.200s", r.code, r.body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sim-trace did not finish after the worker was released")
	}
	waitDone(t, holder)
	if got, want := m.cellRuns()-runs, holder.cellsTotal.Load(); got != want {
		t.Fatalf("cell_runs grew by %d, want the held job's %d cells only", got, want)
	}
	if r := m.mx.simtraceRenders.Value(); r != 1 {
		t.Fatalf("renders = %d, want 1", r)
	}
}

// The render cache is bounded by bytes as well as by count: past
// maxSimtraceBytes it evicts the least recently used renders, so after more
// renders than fit it holds at most the bound, the newest render among them,
// and its gauge follows every eviction. The renders share one backing array
// (each entry pins, and is counted at, that array's capacity), so the test
// itself holds one render's memory.
func TestSimtraceCacheBoundedByBytes(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	backing := make([]byte, 40<<20) // a render at maxTracedTasks is ≈ 39 MB
	render := backing[:1]
	fit := maxSimtraceBytes / cap(render)
	if fit < 6 {
		t.Fatalf("the bound holds %d renders of %d bytes, want at least 6", fit, cap(render))
	}
	for i := range fit + 4 {
		m.mu.Lock()
		m.keepSimtrace(fmt.Sprint("cell-", i), render)
		held, n := m.simtraceBytes, m.simtraces.Len()
		m.mu.Unlock()
		if held > maxSimtraceBytes || held != int64(n*cap(render)) {
			t.Fatalf("after %d renders the cache counts %d bytes for %d entries (bound %d)", i+1, held, n, maxSimtraceBytes)
		}
		if g := gaugeValue(t, m, `asymd_cache_bytes{cache="simtrace"}`); g != held {
			t.Fatalf("gauge %d, cache holds %d bytes", g, held)
		}
	}
	keys := m.simtraces.Keys()
	if len(keys) != fit || keys[0] != fmt.Sprint("cell-", fit+3) || keys[len(keys)-1] != fmt.Sprint("cell-", 4) {
		t.Fatalf("cache holds %v, want the newest %d renders", keys, fit)
	}
	if g := gaugeValue(t, m, `asymd_cache_entries{cache="simtrace"}`); g != int64(fit) {
		t.Fatalf("entries gauge %d, want %d", g, fit)
	}
}
