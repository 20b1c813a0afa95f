package service

import (
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/scenario"
)

// TestDAGWorkloadsEndToEnd is the PR's acceptance check: an imported
// DOT graph and a generated Cholesky DAG flow through the HTTP service
// and produce fingerprints bit-identical to direct scenario.Run, then
// warm-cache resubmits are answered from cache without re-simulation.
func TestDAGWorkloadsEndToEnd(t *testing.T) {
	specs := map[string]scenario.Spec{
		"imported-dot": {
			Name:     "svc-dag-import",
			Workload: scenario.WorkloadSpec{Kind: scenario.DAGFile, DAG: dagio.Demo()},
			Policies: []core.Policy{core.RWS(), core.DAMC()},
			Seed:     11,
		},
		"generated-cholesky": {
			Name: "svc-dag-cholesky",
			Workload: scenario.WorkloadSpec{Kind: scenario.DAGGen, DAGGen: dagio.GenConfig{
				Model: dagio.ModelCholesky, Tiles: 5,
			}},
			Policies: []core.Policy{core.RWS(), core.DAMC()},
			Points:   []scenario.Point{{Label: "T5", Tile: 5}, {Label: "T7", Tile: 7}},
			Seed:     11,
		},
	}
	for name, spec := range specs {
		spec := spec
		t.Run(name, func(t *testing.T) {
			m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
			cj, err := spec.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf(`{"spec": %s}`, cj)
			st, code := postJob(t, srv.URL, body)
			if code != 202 {
				t.Fatalf("submit returned %d, want 202", code)
			}
			st = pollDone(t, srv.URL, st.ID)
			if st.State != "done" {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
			var res ResultResponse
			if code := getJSON(t, srv.URL+"/v1/results/"+st.ID, &res); code != 200 {
				t.Fatalf("results returned %d", code)
			}
			direct := scenario.MustRun(spec)
			if res.Fingerprint != direct.Fingerprint() {
				t.Fatalf("service fingerprint differs from direct run:\n--- service\n%s\n--- direct\n%s",
					res.Fingerprint, direct.Fingerprint())
			}
			runsBefore := m.cellRuns()
			// Warm resubmit: absorbed by the done job, zero new cells.
			if _, code := postJob(t, srv.URL, body); code != 200 {
				t.Fatalf("warm resubmit returned %d, want 200", code)
			}
			if got := m.cellRuns(); got != runsBefore {
				t.Fatalf("warm resubmit simulated %d extra cells", got-runsBefore)
			}
		})
	}
}

// TestRemoteShardDAGFile ships an imported graph's cells to a peer
// over POST /v1/shards: the canonical spec is self-contained (it
// carries the normalized graph, not a path), so the worker rebuilds the
// exact workload and the merged fingerprint survives the wire.
func TestRemoteShardDAGFile(t *testing.T) {
	worker := NewManager(Config{Workers: 2})
	srv := httptest.NewServer(worker.Handler(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()
	coord := NewManager(Config{Workers: 2, ShardSize: 2})
	coord.setBackends(newRemoteBackend(srv.URL, nil))

	spec := scenario.Spec{
		Name:     "remote-dagfile",
		Workload: scenario.WorkloadSpec{Kind: scenario.DAGFile, DAG: dagio.Demo()},
		Policies: []core.Policy{core.RWS(), core.DAMC(), core.DAMP()},
		Reps:     2,
		Seed:     42,
	}
	j, _, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if coord.cellRuns() != 0 {
		t.Errorf("coordinator simulated %d cells itself; all shards should have gone remote", coord.cellRuns())
	}
	if want := int64(3 * 2); worker.cellRuns() != want {
		t.Errorf("worker simulated %d cells, want %d", worker.cellRuns(), want)
	}
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(spec); fp != direct.Fingerprint() {
		t.Error("remote dagfile fingerprint differs from direct engine run")
	}
}

// TestDAGGenCellCacheOverlap extends a Cholesky sweep by one point and
// requires the delta job to assemble the shared cells from the cell
// cache, simulating only the new point's cells.
func TestDAGGenCellCacheOverlap(t *testing.T) {
	mk := func(tiles ...int) scenario.Spec {
		pts := make([]scenario.Point, len(tiles))
		for i, T := range tiles {
			pts[i] = scenario.Point{Label: fmt.Sprintf("T%d", T), Tile: T}
		}
		return scenario.Spec{
			Name: "svc-dag-overlap",
			Workload: scenario.WorkloadSpec{Kind: scenario.DAGGen, DAGGen: dagio.GenConfig{
				Model: dagio.ModelCholesky,
			}},
			Policies: []core.Policy{core.RWS(), core.DAMC()},
			Points:   pts,
			Seed:     23,
		}
	}
	m := NewManager(Config{Workers: 2, CacheSize: 8})
	ja, _, err := m.Submit(mk(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ja)
	cold := m.cellRuns()
	if cold != 4 {
		t.Fatalf("cold run simulated %d cells, want 4", cold)
	}
	jb, existing, err := m.Submit(mk(4, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("extended sweep absorbed by the old job")
	}
	waitDone(t, jb)
	if got := m.cellRuns(); got != cold+2 {
		t.Fatalf("delta job brought cell runs to %d, want %d", got, cold+2)
	}
	st := jb.snapshot()
	if st.CellHits != 4 || st.CellMisses != 2 {
		t.Fatalf("delta job counted %d hits / %d misses, want 4 / 2", st.CellHits, st.CellMisses)
	}
	_, fp, _, err := jb.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(mk(4, 5, 6)); fp != direct.Fingerprint() {
		t.Fatal("cell-assembled daggen fingerprint differs from a from-scratch run")
	}
}
