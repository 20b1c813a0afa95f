package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynasym/internal/core"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// overlapSpec returns tinySpec's shape with a configurable sweep axis.
func overlapSpec(seed uint64, points ...int) scenario.Spec {
	s := tinySpec(seed)
	s.Points = scenario.ParallelismPoints(points...)
	return s
}

// TestPartialOverlapReusesCells is the cell-cache acceptance test: after
// spec A runs, submitting A plus one extra sweep point must simulate only
// the new cells — and still merge to the exact fingerprint a from-scratch
// run produces.
func TestPartialOverlapReusesCells(t *testing.T) {
	m := NewManager(Config{Workers: 2, CacheSize: 8})
	a := overlapSpec(31, 2, 4)
	ja, _, err := m.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ja)
	cellsA := int64(len(a.Policies) * 2) // 2 policies × 2 points × 1 rep
	if got := m.cellRuns(); got != cellsA {
		t.Fatalf("cold run simulated %d cells, want %d", got, cellsA)
	}

	b := overlapSpec(31, 2, 4, 8)
	jb, existing, err := m.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("extended spec was absorbed by the old job despite a new point")
	}
	waitDone(t, jb)
	delta := int64(len(b.Policies)) // one new point × 2 policies
	if got := m.cellRuns(); got != cellsA+delta {
		t.Errorf("overlap resubmit brought cell runs to %d, want %d (only the delta simulates)", got, cellsA+delta)
	}
	st := jb.snapshot()
	if st.CellHits != cellsA || st.CellMisses != delta {
		t.Errorf("job counted %d hits / %d misses, want %d / %d", st.CellHits, st.CellMisses, cellsA, delta)
	}

	// The assembled result must be bit-identical to a from-scratch run.
	_, fp, _, err := jb.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(overlapSpec(31, 2, 4, 8)); fp != direct.Fingerprint() {
		t.Error("cell-assembled fingerprint differs from a from-scratch run")
	}

	stats := m.stats()
	if stats.CellHits != cellsA || stats.CellMisses != cellsA+delta {
		t.Errorf("stats count %d hits / %d misses, want %d / %d", stats.CellHits, stats.CellMisses, cellsA, cellsA+delta)
	}
}

// TestShardReplyDigestIsKept: a cell's digest crosses the wire in hex beside
// its summary, and the coordinator keeps it as it arrived, without re-sealing.
// So a peer that doctors one digest moves the job's fingerprint, and the
// replay behind GET /v1/results/{hash}/fingerprint, which re-runs every cell
// locally, answers 500 naming that cell.
func TestShardReplyDigestIsKept(t *testing.T) {
	plan, err := scenario.NewPlan(tinySpec(58))
	if err != nil {
		t.Fatal(err)
	}
	direct := scenario.MustRun(tinySpec(58))
	first := direct.Cells[0][0].Run()
	doctored := first.Summary()
	doctored.Digest[0] ^= 1
	var replaced atomic.Int64
	worker := NewManager(Config{Workers: 2}).Handler(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		worker.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == "/v1/shards" {
			sum := first.Summary()
			real := []byte(`"Digest":"` + hex.EncodeToString(sum.Digest[:]) + `"`)
			replaced.Add(int64(bytes.Count(body, real)))
			body = bytes.ReplaceAll(body, real, []byte(`"Digest":"`+hex.EncodeToString(doctored.Digest[:])+`"`))
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	}))
	defer srv.Close()
	coord := NewManager(Config{Workers: 1, ShardSize: 3})
	coord.setBackends(newRemoteBackend(srv.URL, nil))
	h := quietHandler(coord)
	j, _, err := coord.Submit(tinySpec(58))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	res, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if coord.cellRuns() != 0 {
		t.Errorf("coordinator simulated %d cells itself; every cell should have crossed the wire", coord.cellRuns())
	}
	if n := replaced.Load(); n != 1 {
		t.Fatalf("the replies carried the first cell's digest in hex %d times, want once", n)
	}
	if res.Runs[0] != doctored {
		t.Errorf("the coordinator holds %+v for the doctored cell, want the peer's %+v", res.Runs[0], doctored)
	}
	if fp == direct.Fingerprint() {
		t.Error("a doctored digest left the fingerprint as the direct run's: the coordinator re-sealed")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/results/"+j.Hash+"/fingerprint", nil))
	if want := "cell 0 (" + plan.CellLabel(plan.Cells[0]); w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), want) {
		t.Errorf("replay of a doctored cell: status %d, %s; want 500 naming %q", w.Code, w.Body, want)
	}
	if coord.cellRuns() != 0 {
		t.Errorf("the replay counted %d cell runs, want none", coord.cellRuns())
	}
}

// TestShardReplySchedIsIgnored: scheduler telemetry stays in the process
// that ran the cell. A peer whose shard reply carries a large "Sched" in
// every cell's summary gets none of it into the cell cache, which holds
// summaries of a fixed size, and the job's fingerprint is the direct run's.
func TestShardReplySchedIsIgnored(t *testing.T) {
	worker := NewManager(Config{Workers: 2}).Handler(slog.New(slog.NewTextHandler(io.Discard, nil)))
	sched := `"summary":{"Sched":{"Busy":[` + strings.Repeat("1,", 1<<16) + `1],"Span":1,"PTTSamples":7},`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		worker.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == "/v1/shards" {
			if !bytes.Contains(body, []byte(`"summary":{`)) {
				t.Errorf("a /v1/shards reply has no summary member: %.300s", body)
			}
			body = bytes.ReplaceAll(body, []byte(`"summary":{`), []byte(sched))
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	}))
	defer srv.Close()
	coord := NewManager(Config{Workers: 1, ShardSize: 3})
	coord.setBackends(newRemoteBackend(srv.URL, nil))
	j, _, err := coord.Submit(tinySpec(59))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if _, fp, _, err := j.Result(); err != nil || fp != scenario.MustRun(tinySpec(59)).Fingerprint() {
		t.Fatalf("err=%v, or a fingerprint unlike the direct run's", err)
	}
	if coord.cellRuns() != 0 {
		t.Errorf("coordinator simulated %d cells itself; every cell should have crossed the wire", coord.cellRuns())
	}
	coord.mu.Lock()
	held := coord.cells.Len()
	coord.mu.Unlock()
	if held != 4 {
		t.Errorf("cell cache holds %d cells, want the job's 4", held)
	}
	if got := gaugeValue(t, coord, "asymd_cell_cache_bytes"); got != int64(held)*summaryBytes {
		t.Errorf("asymd_cell_cache_bytes = %d, want %d cells of %d bytes", got, held, summaryBytes)
	}
}

// TestRemoteBackendFingerprint runs a job whose every shard executes on a
// peer node over POST /v1/shards, for every Table-1 policy at once, and
// requires the merged fingerprint to be bit-identical to a direct
// in-process run — metrics survive the wire exactly.
func TestRemoteBackendFingerprint(t *testing.T) {
	worker := NewManager(Config{Workers: 2})
	srv := httptest.NewServer(worker.Handler(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()

	coord := NewManager(Config{Workers: 2, ShardSize: 3})
	coord.setBackends(newRemoteBackend(srv.URL, nil)) // no local fallback: every cell crosses the wire

	spec := scenario.Spec{
		Name: "remote-fingerprint",
		Workload: scenario.WorkloadSpec{Kind: scenario.Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul, Tasks: 400, Parallelism: 4,
		}},
		Disturb:  []scenario.Disturbance{{Kind: scenario.Burst, Cluster: 1, Share: 0.4, BusyDur: 0.1, IdleDur: 0.2}},
		Policies: core.All(),
		Points:   scenario.ParallelismPoints(2, 4),
		Reps:     2,
		Seed:     42,
	}
	j, _, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if coord.cellRuns() != 0 {
		t.Errorf("coordinator simulated %d cells itself; all shards should have gone remote", coord.cellRuns())
	}
	if want := int64(len(core.All()) * 2 * 2); worker.cellRuns() != want {
		t.Errorf("worker simulated %d cells, want %d", worker.cellRuns(), want)
	}
	if direct := scenario.MustRun(spec); fp != direct.Fingerprint() {
		t.Error("remote-backend fingerprint differs from direct engine run")
	}

	// Resubmit under a different name: same cells, different job. The
	// coordinator's cell cache (fed by remote results) must serve all of it.
	spec2 := spec
	spec2.Name = "remote-fingerprint-rerun"
	runsBefore := worker.cellRuns()
	j2, _, err := coord.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if worker.cellRuns() != runsBefore {
		t.Error("renamed resubmit re-simulated cells despite a warm coordinator cell cache")
	}
	_, fp2, _, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 == fp {
		t.Error("renamed spec produced an identical fingerprint (name should differ)")
	}
}

// TestRemoteBackendIterStats sends a KMeans cell over the wire: its
// metrics carry per-iteration stats with (place, count) pairs, the richest
// part of RunMetrics. Only the summary crosses: the coordinator banks the
// direct run's summary bit for bit, and the replay behind GET
// .../fingerprint rebuilds the pairs on the coordinator, checked against the
// peer's digest, exactly as the direct run has them.
func TestRemoteBackendIterStats(t *testing.T) {
	worker := NewManager(Config{Workers: 2})
	srv := httptest.NewServer(worker.Handler(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()
	coord := NewManager(Config{Workers: 1})
	coord.setBackends(newRemoteBackend(srv.URL, nil))

	spec := scenario.Spec{
		Name: "remote-kmeans",
		Workload: scenario.WorkloadSpec{Kind: scenario.KMeans, KMeans: workloads.KMeansConfig{
			N: 4096, K: 4, Grains: 16, MaxIters: 3,
		}},
		Policies: []core.Policy{core.DAMP()},
		Seed:     9,
	}
	j, _, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	sum, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if coord.cellRuns() != 0 {
		t.Fatalf("coordinator simulated %d cells itself; the cell should have crossed the wire", coord.cellRuns())
	}
	direct := scenario.MustRun(spec)
	want := direct.Cells[0][0].Run()
	if c := want.Iters.Cursor(); !c.Next() || c.Pairs() == 0 {
		t.Fatal("kmeans run carried no per-iteration place counts; the test is vacuous")
	}
	if sum.Runs[0] != want.Summary() {
		t.Errorf("the summary changed on the wire:\n got  %+v\n want %+v", sum.Runs[0], want.Summary())
	}
	if fp != direct.Fingerprint() {
		t.Error("remote kmeans fingerprint differs from direct engine run")
	}
	res, err := coord.replay(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cells[0][0].Run().Iters; !reflect.DeepEqual(got, want.Iters) {
		t.Errorf("the replayed iteration stats differ from the direct run's:\n got  %+v\n want %+v", got, want.Iters)
	}
	if res.FingerprintText() != direct.FingerprintText() {
		t.Error("the replayed text differs from the direct run's")
	}
}

// TestRemoteBackendRejectsOldPlacesForm: a version-skewed peer that still
// encodes IterStat.Places as the {"place": count} object must surface as a
// failed shard attempt — retried elsewhere, failed loudly if nowhere is
// left — never as a cell banked with its place counts dropped.
func TestRemoteBackendRejectsOldPlacesForm(t *testing.T) {
	plan, err := scenario.NewPlan(tinySpec(57))
	if err != nil {
		t.Fatal(err)
	}
	cell := plan.Cells[0]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"results":[{"hash":%q,"metrics":{"Seed":57,"TasksDone":9,"Iters":[{"Iter":0,"Tasks":9,"Start":0,"End":1,"Places":{"3":9}}]}}]}`, cell.Hash)
	}))
	defer srv.Close()
	crs, err := newRemoteBackend(srv.URL, nil).execute(context.Background(), plan, []scenario.CellJob{cell})
	if err == nil || !strings.Contains(err.Error(), "neither a summary nor an error") {
		t.Fatalf("old-form shard response: err = %v, want one naming the missing summary", err)
	}
	if len(crs) != 0 {
		t.Fatalf("old-form shard response still yielded %d cell results", len(crs))
	}

	// End to end: with that peer as the only backend the job fails; with
	// the local pool behind it the shard fails over and the job is right.
	m := NewManager(Config{Workers: 1})
	m.setBackends(newRemoteBackend(srv.URL, nil), m.local)
	j, _, err := m.Submit(tinySpec(57))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatalf("job behind a version-skewed peer: %v", err)
	}
	if fp != scenario.MustRun(tinySpec(57)).Fingerprint() {
		t.Error("job behind a version-skewed peer produced a wrong fingerprint")
	}
}

// TestPeerMetricsShapeFailsOver: a peer from before the summary wire answers
// each cell under "metrics", the member this coordinator no longer reads. The
// attempt fails naming the missing summary, nothing of it is banked or
// merged, and the shard fails over to the local pool, so the job is right.
func TestPeerMetricsShapeFailsOver(t *testing.T) {
	worker := NewManager(Config{Workers: 2}).Handler(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		worker.ServeHTTP(rec, r)
		body := bytes.ReplaceAll(rec.Body.Bytes(), []byte(`"summary":`), []byte(`"metrics":`))
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	}))
	defer srv.Close()
	m := NewManager(Config{Workers: 2, ShardSize: 2})
	m.setBackends(newRemoteBackend(srv.URL, nil), m.local)
	j, _, err := m.Submit(tinySpec(85))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if _, fp, _, err := j.Result(); err != nil || fp != scenario.MustRun(tinySpec(85)).Fingerprint() {
		t.Fatalf("err=%v, or a fingerprint unlike the direct run's", err)
	}
	if got := m.cellRuns(); got != 4 {
		t.Errorf("the local pool simulated %d cells, want all 4: no old-shape reply may be merged", got)
	}
	if n := m.mx.shardFailovers.Value(); n == 0 {
		t.Error("no shard failed over; the old-shape peer was never tried")
	}
	h := m.handles[0]
	h.mu.Lock()
	lastErr := h.lastErr
	h.mu.Unlock()
	if lastErr == nil || !strings.Contains(lastErr.Error(), "neither a summary nor an error") {
		t.Errorf("the peer's attempt recorded %v, want an error naming the missing summary", lastErr)
	}
}

// flakyBackend fails every Execute with a transport-style error.
type flakyBackend struct{ calls atomic.Int64 }

func (f *flakyBackend) label() string { return "flaky" }
func (f *flakyBackend) execute(context.Context, *scenario.Plan, []scenario.CellJob) ([]CellResult, error) {
	f.calls.Add(1)
	return nil, errors.New("connection refused")
}

// TestShardFailoverToAnotherBackend: a shard whose round-robin home
// backend fails must complete on another backend, invisibly to the caller.
func TestShardFailoverToAnotherBackend(t *testing.T) {
	m := NewManager(Config{Workers: 2, ShardSize: 1})
	flaky := &flakyBackend{}
	m.setBackends(flaky, m.local) // every even shard homes on the broken backend
	j, _, err := m.Submit(tinySpec(33))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.loadState() != stateDone {
		t.Fatalf("job finished %v (%v), want done despite the failing backend", j.loadState(), j.snapshot().Error)
	}
	if flaky.calls.Load() == 0 {
		t.Error("failing backend was never tried; test is vacuous")
	}
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(tinySpec(33)); fp != direct.Fingerprint() {
		t.Error("failover changed the fingerprint")
	}
}

// stuckBackend accepts a shard and never returns until its context is
// canceled — a wedged-but-connected peer.
type stuckBackend struct{}

func (stuckBackend) label() string { return "stuck" }
func (stuckBackend) execute(ctx context.Context, _ *scenario.Plan, _ []scenario.CellJob) ([]CellResult, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestShardTimeoutFailover: a wedged non-local backend must be cut off by
// ShardTimeout and the shard completed elsewhere — without the timeout,
// the job (and its admission slot) would hang forever.
func TestShardTimeoutFailover(t *testing.T) {
	m := NewManager(Config{Workers: 2, ShardSize: 1, ShardTimeout: 50 * time.Millisecond})
	m.setBackends(stuckBackend{}, m.local)
	j, _, err := m.Submit(tinySpec(37))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.loadState() != stateDone {
		t.Fatalf("job finished %v (%v), want done via failover from the stuck backend", j.loadState(), j.snapshot().Error)
	}
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(tinySpec(37)); fp != direct.Fingerprint() {
		t.Error("timeout failover changed the fingerprint")
	}
}

// TestAllBackendsFailing: when no backend in the one pass over the fleet
// can take a shard, the job fails with an error naming every attempt.
func TestAllBackendsFailing(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	m.setBackends(&flakyBackend{})
	j, _, err := m.Submit(tinySpec(34))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.loadState() != stateFailed {
		t.Fatalf("job finished %v, want failed", j.loadState())
	}
	if _, _, _, err := j.Result(); err == nil || !strings.Contains(err.Error(), "failed on every admissible backend: backend flaky: connection refused") {
		t.Errorf("error %v does not name backend exhaustion", err)
	}
}

// TestConcurrentOverlapSimulatesPerJob: a job owns its cells, so a job
// submitted while another simulates the cells it needs simulates them again.
// The duplicate work is stated: both jobs still match a direct run, the cell
// cache holds each distinct cell once, and neither its byte gauge nor the sim
// telemetry counts a re-banked cell twice.
func TestConcurrentOverlapSimulatesPerJob(t *testing.T) {
	m := NewManager(Config{Workers: 4, ShardSize: 1})
	realRun := m.local.runCell
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	m.local.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		started <- struct{}{}
		<-release
		return realRun(p, st, c)
	}

	a := overlapSpec(38, 2, 4) // 2 policies × 2 points = 4 cells
	ja, _, err := m.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	for range 4 {
		<-started // A's four cells hold the four pool workers
	}
	b := overlapSpec(38, 2, 4, 8) // shares A's 4 cells, adds 2
	jb, _, err := m.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	// B's pass ends while A's cells are held, so it finds none of its 6 cached.
	for deadline := time.Now().Add(10 * time.Second); jb.cellMisses.Load() != 6; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job B counted %d misses, want 6", jb.cellMisses.Load())
		}
	}
	close(release)
	waitDone(t, ja)
	waitDone(t, jb)
	for _, tc := range []struct {
		j    *Job
		spec scenario.Spec
	}{{ja, a}, {jb, b}} {
		if _, fp, _, err := tc.j.Result(); err != nil || fp != scenario.MustRun(tc.spec).Fingerprint() {
			t.Errorf("job of %d points: err=%v, or a fingerprint unlike the direct run's", len(tc.spec.Points), err)
		}
	}
	if got := m.cellRuns(); got != 10 {
		t.Errorf("cell runs = %d, want A's 4 and B's 6", got)
	}
	m.mu.Lock()
	var tasks int64
	for _, h := range m.cells.Keys() {
		sum, _ := m.cells.Peek(h)
		tasks += sum.TasksDone
	}
	held := m.cells.Len()
	m.mu.Unlock()
	if held != 6 {
		t.Errorf("cell cache holds %d cells, want the 6 distinct ones", held)
	}
	if got := gaugeValue(t, m, "asymd_cell_cache_bytes"); got != int64(held)*summaryBytes {
		t.Errorf("asymd_cell_cache_bytes = %d, want %d summaries of %d bytes", got, held, summaryBytes)
	}
	if got := gaugeValue(t, m, "asymd_sim_tasks_total"); got != tasks {
		t.Errorf("asymd_sim_tasks_total = %d, want %d (each distinct cell once)", got, tasks)
	}
}

// TestConcurrentOverlapSurvivesFailedSharedCell: job A fails on a cell that
// job B, submitted while A simulates it, also needs. B runs its own copy, so
// A's failure neither stalls nor fails it, and the failed run is not cached.
func TestConcurrentOverlapSurvivesFailedSharedCell(t *testing.T) {
	m := NewManager(Config{Workers: 4, ShardSize: 1})
	aStarted, releaseA := make(chan struct{}, 1), make(chan struct{})
	bStarted, releaseB := make(chan struct{}, 1), make(chan struct{})
	realRun := m.local.runCell
	m.local.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		if c.Policy == 0 && c.Point == 0 {
			switch p.Spec.Name {
			case "fail-a":
				aStarted <- struct{}{}
				<-releaseA
				return scenario.RunMetrics{}, errors.New("injected failure")
			case "own-b":
				bStarted <- struct{}{}
				<-releaseB
			}
		}
		return realRun(p, st, c)
	}
	a := overlapSpec(76, 2, 4)
	a.Name = "fail-a"
	ja, _, err := m.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	<-aStarted
	b := overlapSpec(76, 2, 4, 8)
	b.Name = "own-b"
	jb, _, err := m.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	<-bStarted // B simulates the shared cell itself
	close(releaseA)
	waitDone(t, ja)
	if ja.loadState() != stateFailed {
		t.Fatalf("job A is %v, want failed", ja.loadState())
	}
	shared, err := jb.plan.Cell(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	_, cached := m.cells.Peek(shared.Hash)
	m.mu.Unlock()
	if cached {
		t.Error("the cell job A failed on entered the cell cache")
	}
	close(releaseB)
	waitDone(t, jb)
	st := jb.snapshot()
	if st.State != "done" || st.CellHits+st.CellMisses != 6 || st.CellsDone != 6 {
		t.Errorf("job B counted %+v, want done with hits and misses partitioning its 6 cells", st)
	}
	if _, fp, _, err := jb.Result(); err != nil || fp != scenario.MustRun(b).Fingerprint() {
		t.Errorf("job B: err=%v, or a fingerprint unlike the direct run's", err)
	}
}

// TestFailedJobBanksSucceededCells: a job that fails on one cell must
// still cache the cells that finished — the sibling work survives the
// failure and serves later jobs.
func TestFailedJobBanksSucceededCells(t *testing.T) {
	m := NewManager(Config{Workers: 2, ShardSize: 1})
	realRun := m.local.runCell
	// The P8 cells fail — but only after every good cell finished, so the
	// banked count below is deterministic despite dispatch canceling
	// outstanding shards on the first failure.
	var goodDone atomic.Int64
	m.local.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		if p.Spec.Points[c.Point].Parallelism == 8 {
			for goodDone.Load() < 4 {
				time.Sleep(time.Millisecond)
			}
			return scenario.RunMetrics{}, errors.New("injected cell failure")
		}
		rm, err := realRun(p, st, c)
		goodDone.Add(1)
		return rm, err
	}
	j, _, err := m.Submit(overlapSpec(36, 2, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.loadState() != stateFailed {
		t.Fatalf("job finished %v, want failed", j.loadState())
	}
	m.local.runCell = realRun

	// The P2/P4 cells simulated before the failure must now be cache hits.
	j2, _, err := m.Submit(overlapSpec(36, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if j2.loadState() != stateDone {
		t.Fatalf("follow-up job finished %v: %v", j2.loadState(), j2.snapshot().Error)
	}
	st := j2.snapshot()
	if st.CellHits != 4 || st.CellMisses != 0 {
		t.Errorf("follow-up job had %d hits / %d misses, want 4 / 0 (failed job must bank finished cells)",
			st.CellHits, st.CellMisses)
	}
	_, fp, _, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(overlapSpec(36, 2, 4)); fp != direct.Fingerprint() {
		t.Error("banked cells produced a different fingerprint")
	}
}

// TestDuplicatePointsRunOncePerPosition: two points with identical
// parameters under different labels are one cell hash, yet each grid
// position runs its own simulation, and both give the same metrics.
func TestDuplicatePointsRunOncePerPosition(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	s := tinySpec(35)
	s.Points = []scenario.Point{
		{Label: "left", Parallelism: 4},
		{Label: "right", Parallelism: 4},
	}
	j, _, err := m.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if want := int64(2 * len(s.Policies)); m.cellRuns() != want {
		t.Errorf("simulated %d cells for twin points, want %d (one per position)", m.cellRuns(), want)
	}
	st := j.snapshot()
	if st.CellsDone != st.CellsTotal || st.CellsTotal != int64(2*len(s.Policies)) {
		t.Errorf("progress %d/%d, want %d/%d", st.CellsDone, st.CellsTotal, 2*len(s.Policies), 2*len(s.Policies))
	}
	// Hits and misses partition the grid: each position is one or the other.
	if st.CellHits+st.CellMisses != st.CellsTotal {
		t.Errorf("cell_hits %d + cell_misses %d != cells_total %d", st.CellHits, st.CellMisses, st.CellsTotal)
	}
	res, _, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if l, r := res.Runs[0], res.Runs[1]; res.Points[1].Label != "right" || l != r {
		t.Errorf("twin points diverged: %+v, %+v", l, r)
	}
}

// TestWedgedHTTPPeerShardTimeout: a real HTTP peer that accepts the
// connection but never responds is the nastiest failure mode — no
// transport error ever arrives. ShardTimeout must cut the attempt off as
// a retryable failure and the shard must fail over to the local pool.
func TestWedgedHTTPPeerShardTimeout(t *testing.T) {
	unblock := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // accept the shard, then never answer
		<-unblock
	}))
	defer wedged.Close()
	defer close(unblock) // runs before Close, releasing the held requests

	m := NewManager(Config{Workers: 2, ShardTimeout: 100 * time.Millisecond})
	m.setBackends(newRemoteBackend(wedged.URL, nil), m.local)
	start := time.Now()
	j, _, err := m.Submit(tinySpec(44))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.loadState() != stateDone {
		t.Fatalf("job finished %v (%s), want done via local failover", j.loadState(), j.snapshot().Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("failover took %v; the wedged peer was not cut off by ShardTimeout", elapsed)
	}
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(tinySpec(44)); fp != direct.Fingerprint() {
		t.Error("failover fingerprint differs from direct run")
	}
	h := m.handles[0]
	h.mu.Lock()
	lastErr := h.lastErr
	h.mu.Unlock()
	if lastErr == nil || !errors.Is(lastErr, context.DeadlineExceeded) {
		t.Errorf("wedged peer recorded %v, want a context.DeadlineExceeded chain", lastErr)
	}
}

// TestBackendErrorsCarryNoResults pins the Backend.Execute contract the
// one-pass dispatcher relies on: an error comes with nil results, except on
// a done context, and a cell's own failure is that cell's Err, not the
// batch's error.
func TestBackendErrorsCarryNoResults(t *testing.T) {
	plan, err := scenario.NewPlan(tinySpec(64))
	if err != nil {
		t.Fatal(err)
	}
	worker := NewManager(Config{Workers: 2})
	srv := httptest.NewServer(worker.Handler(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	skewed := append([]scenario.CellJob(nil), plan.Cells...)
	skewed[0].Hash = strings.Repeat("0", len(skewed[0].Hash))

	for _, tc := range []struct {
		name  string
		b     Backend
		cells []scenario.CellJob
		want  string
	}{
		{"refused", newRemoteBackend(closed.URL, nil), plan.Cells, "post shard"},
		{"version-skew", newRemoteBackend(srv.URL, nil), skewed, "status 409"},
		{"corrupt-hash", newRemoteBackend(srv.URL, newFaultTransport(false, faultCorrupt)), plan.Cells, "carries hash"},
		{"truncated-body", newRemoteBackend(srv.URL, newFaultTransport(false, faultTruncate)), plan.Cells, "decode shard response"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			crs, err := tc.b.execute(context.Background(), plan, tc.cells)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Execute error = %v, want one containing %q", err, tc.want)
			}
			if crs != nil {
				t.Errorf("failed Execute returned %d results alongside its error, want nil", len(crs))
			}
		})
	}

	t.Run("local-cell-errors", func(t *testing.T) {
		b := newLocalBackend(2)
		b.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
			switch c.Hash {
			case plan.Cells[0].Hash:
				return scenario.RunMetrics{}, errors.New("bad cell")
			case plan.Cells[1].Hash:
				panic("broken invariant")
			}
			return scenario.RunMetrics{TasksDone: 1}, nil
		}
		crs, err := b.execute(context.Background(), plan, plan.Cells)
		if err != nil {
			t.Fatalf("Execute error = %v for per-cell failures, want nil", err)
		}
		if len(crs) != len(plan.Cells) {
			t.Fatalf("Execute returned %d results for %d cells", len(crs), len(plan.Cells))
		}
		for i, cr := range crs {
			if cr.Hash != plan.Cells[i].Hash || (cr.Err != nil) != (i < 2) {
				t.Errorf("result %d = {Hash %.12s, Err %v}, want hash %.12s with an error iff i < 2",
					i, cr.Hash, cr.Err, plan.Cells[i].Hash)
			}
		}
	})

	t.Run("local-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		crs, err := newLocalBackend(2).execute(ctx, plan, plan.Cells)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Execute error = %v under a cancelled context, want context.Canceled", err)
		}
		for i, cr := range crs {
			if cr.Hash != "" {
				t.Errorf("result %d carries hash %.12s, but no cell ran", i, cr.Hash)
			}
		}
	})
}
