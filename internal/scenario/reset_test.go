package scenario

import (
	"reflect"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/simrt"
	"dynasym/internal/workloads"
)

// stateFingerprint runs every cell of the spec sequentially through
// RunCellState with the given scratch state (nil means fresh state per
// cell) and returns the merged result fingerprint.
func stateFingerprint(t *testing.T, s Spec, st *CellState) string {
	t.Helper()
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[string]RunMetrics, len(p.Cells))
	for _, c := range p.Cells {
		run := st
		if run == nil {
			run = NewCellState()
		}
		rm, err := p.RunCellState(run, c)
		if err != nil {
			t.Fatalf("%s: %v", p.CellLabel(c), err)
		}
		results[c.Hash] = rm
	}
	res, err := Merge(p, results)
	if err != nil {
		t.Fatal(err)
	}
	return res.Fingerprint()
}

// TestRuntimeReuseMatchesFresh is the determinism gate for cross-cell
// runtime reuse: for every Table-1 policy and each workload kind, driving
// one CellState (reused engine + reset simrt.Runtimes, one per node)
// through the whole grid must produce a fingerprint byte-identical to
// building fresh state for every cell.
func TestRuntimeReuseMatchesFresh(t *testing.T) {
	kinds := []struct {
		name string
		w    WorkloadSpec
		pts  []Point
	}{
		{"daggen", WorkloadSpec{Kind: DAGGen,
			DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 6}}, ParallelismPoints(2, 4)},
		{"dagfile", WorkloadSpec{Kind: DAGFile, DAG: dagio.Demo(), Criticality: CritInferred}, nil},
		{"synthetic", WorkloadSpec{Kind: Synthetic,
			Synthetic: workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 240}}, ParallelismPoints(2, 4)},
		{"kmeans", WorkloadSpec{Kind: KMeans,
			KMeans: workloads.KMeansConfig{N: 2048, D: 4, K: 4, Grains: 8, MaxIters: 6}}, nil},
		{"heatdist", WorkloadSpec{Kind: HeatDist, Heat: smallHeat(2)}, nil},
	}
	for _, k := range kinds {
		for _, pol := range core.All() {
			k, pol := k, pol
			t.Run(k.name+"/"+pol.Name(), func(t *testing.T) {
				t.Parallel()
				s := Spec{
					Name:     "reuse-vs-fresh",
					Platform: PlatformSpec{Preset: "tx2"},
					Workload: k.w,
					Policies: []core.Policy{pol},
					Points:   k.pts,
					Reps:     2,
					Seed:     11,
				}
				fresh := stateFingerprint(t, s, nil)
				if fresh == "" {
					t.Fatal("empty fingerprint")
				}
				reused := stateFingerprint(t, s, NewCellState())
				if fresh != reused {
					t.Fatalf("fresh and reused runs diverged:\n--- fresh\n%s\n--- reused\n%s",
						fresh, reused)
				}
			})
		}
	}
}

// A CellState that already ran cells of one spec must be reusable for a
// spec with a different platform shape, policy family, and workload — the
// runtime's shape-change rebuild path — without influencing the metrics.
func TestRuntimeReuseAcrossShapes(t *testing.T) {
	warm := Spec{
		Name:     "reuse-warmup",
		Platform: PlatformSpec{Preset: "haswell16"},
		Workload: WorkloadSpec{Kind: Synthetic,
			Synthetic: workloads.SyntheticConfig{Kernel: workloads.Copy, Tasks: 96}},
		Policies: []core.Policy{core.RWS()},
		Seed:     3,
	}
	target := Spec{
		Name:     "reuse-target",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGGen,
			DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 5}},
		Policies: []core.Policy{core.DAMP()},
		Points:   ParallelismPoints(2, 4),
		Reps:     2,
		Seed:     23,
	}
	fresh := stateFingerprint(t, target, nil)
	st := NewCellState()
	_ = stateFingerprint(t, warm, st) // dirty the state on another shape
	if reused := stateFingerprint(t, target, st); reused != fresh {
		t.Fatalf("a state warmed on another platform changed the metrics:\n--- fresh\n%s\n--- reused\n%s",
			fresh, reused)
	}
}

// smallHeat is a fast distributed-heat configuration on the given node count.
func smallHeat(nodes int) workloads.HeatDistConfig {
	return workloads.HeatDistConfig{Nodes: nodes, BlocksPerNode: 6, Iters: 4, RowsPerBlock: 8, Cols: 4096}
}

// A heat cell runs on whatever the worker's state holds: after a synthetic
// cell (one runtime, another platform) and a 3-node heat cell, a 2-node heat
// grid resets the runtimes the state already has for nodes 0 and 1 — it
// builds none — and equals a fresh run bit for bit.
func TestHeatCellReusesNodeRuntimes(t *testing.T) {
	heat := func(nodes int) Spec {
		return Spec{
			Name:     "reuse-heat",
			Platform: PlatformSpec{Preset: "haswell-node"},
			Workload: WorkloadSpec{Kind: HeatDist, Heat: smallHeat(nodes)},
			Disturb:  []Disturbance{{Kind: CoRunCPU, Node: 1, Cores: []int{0, 1}, Share: 0.4}},
			Policies: []core.Policy{core.DAMP(), core.RWS()},
			Reps:     2,
			Seed:     17,
		}
	}
	fresh := stateFingerprint(t, heat(2), nil)
	st := NewCellState()
	_ = stateFingerprint(t, smallSynthetic(core.RWS()), st)
	if len(st.rts) != 1 {
		t.Fatalf("a synthetic grid left %d runtimes in the state, want 1", len(st.rts))
	}
	_ = stateFingerprint(t, heat(3), st)
	warm := append([]*simrt.Runtime(nil), st.rts...)
	if len(warm) != 3 || warm[0] == nil || warm[1] == nil || warm[2] == nil {
		t.Fatalf("a 3-node heat grid left runtimes %v in the state, want 3", warm)
	}
	if reused := stateFingerprint(t, heat(2), st); reused != fresh {
		t.Fatalf("a heat grid on a warm state diverged from fresh state:\n--- fresh\n%s\n--- reused\n%s", fresh, reused)
	}
	for node, rt := range st.rts {
		if len(st.rts) != len(warm) || rt != warm[node] {
			t.Fatalf("a heat grid on a warm state built a new runtime for node %d instead of resetting the state's", node)
		}
	}
}

// The warm reused path must stay cheap: once a worker's CellState has run
// one cell of the sweep, later same-shape cells may not rebuild the
// runtime. The bound is far below the thousands of allocations a fresh
// runtime costs per cell (per-core state, queues, bitmaps, pools), while
// leaving room for the metrics readout, which is not pooled.
func TestRuntimeReuseAllocs(t *testing.T) {
	s := Spec{
		Name:     "reuse-allocs",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGGen,
			DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 5}},
		Policies: []core.Policy{core.DAMC()},
		Reps:     4,
		Seed:     5,
	}
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	st := NewCellState()
	if _, err := p.RunCellState(st, p.Cells[0]); err != nil {
		t.Fatal(err) // warm: compiles the variant and captures the runtime
	}
	fresh := testing.AllocsPerRun(5, func() {
		if _, err := p.RunCellState(NewCellState(), p.Cells[1]); err != nil {
			t.Fatal(err)
		}
	})
	warm := testing.AllocsPerRun(5, func() {
		if _, err := p.RunCellState(st, p.Cells[1]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per cell: fresh %.0f, warm %.0f", fresh, warm)
	// The remaining warm-path allocations are the metrics readout; the
	// runtime itself contributes none (TestResetAllocs in simrt pins that
	// directly) and the platform and machine model are the plan's.
	if warm > 0.7*fresh {
		t.Errorf("warm reused cell costs %.0f allocs, fresh costs %.0f; reuse should save at least 30%%", warm, fresh)
	}
}

// The cold-grid cell — a 32-core synthetic cell with per-iteration stats —
// is the absolute gate: once its plan's platform and model exist and the
// worker's state is warm, a cell allocates its RunMetrics slices and little
// else. Measured 4 per cell — the place histogram is one exact-size array,
// sorted without sort.Slice's three allocations (7 before), and the cell
// reads its variant's frozen graph in place, so nothing is drawn, reset or
// listed for it (12–14 when each cell took a graph instance from a pool and
// asked it for its ready list; 1 130 when every cell rebuilt the platform and
// model and read iterations out as maps); the cap is that plus 10 %, rounded
// up.
func TestWarmSyntheticCellAllocs(t *testing.T) {
	f, _ := Lookup("scaleout-32")
	p, err := NewPlan(f.Spec(0.05))
	if err != nil {
		t.Fatal(err)
	}
	st := NewCellState()
	for _, c := range p.Cells {
		if _, err := p.RunCellState(st, c); err != nil {
			t.Fatal(err) // warm: compile both variants, grow the runtime's pools
		}
	}
	for _, c := range p.Cells {
		warm := testing.AllocsPerRun(5, func() {
			if _, err := p.RunCellState(st, c); err != nil {
				t.Fatal(err)
			}
		})
		if warm > 5 {
			t.Errorf("%s: warm cell costs %.0f allocs, want <= 5", p.CellLabel(c), warm)
		}
	}
}

// A K-means cell is a compiled cell like any other: with the worker's state
// warm, the default (paper-scale: 100 iterations × 65 tasks) configuration
// costs its RunMetrics readout and nothing per task. Measured 4 (7 while the
// place histogram was sorted with sort.Slice, 15 with pooled graph
// instances); when K-means grew its graph through completion hooks a warm
// cell rebuilt every task, label and closure — 26 339 allocations.
func TestWarmKMeansCellAllocs(t *testing.T) {
	p, err := NewPlan(Spec{
		Name:     "kmeans-allocs",
		Platform: PlatformSpec{Preset: "haswell16"},
		Workload: WorkloadSpec{Kind: KMeans},
		Policies: []core.Policy{core.DAMC()},
		Reps:     2,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewCellState()
	for _, c := range p.Cells {
		if _, err := p.RunCellState(st, c); err != nil {
			t.Fatal(err) // warm: compile the variant, grow the runtime's pools
		}
	}
	warm := testing.AllocsPerRun(5, func() {
		if _, err := p.RunCellState(st, p.Cells[1]); err != nil {
			t.Fatal(err)
		}
	})
	if warm > 5 {
		t.Errorf("warm K-means cell costs %.0f allocs, want <= 5", warm)
	}
}

// KMeansConfig.{Epsilon,Seed,BlobStd} are inert: they stay in the canonical
// encoding (so the specs hash apart) but cannot change what a cell computes.
func TestKMeansInertFieldsDoNotChangeCells(t *testing.T) {
	spec := func(km workloads.KMeansConfig) Spec {
		return Spec{
			Name:     "kmeans-inert",
			Platform: PlatformSpec{Preset: "tx2"},
			Workload: WorkloadSpec{Kind: KMeans, KMeans: km},
			Policies: []core.Policy{core.RWS(), core.DAMP()},
			Reps:     2,
			Seed:     9,
		}
	}
	base := workloads.KMeansConfig{N: 2048, D: 4, K: 4, Grains: 8, MaxIters: 6}
	other := base
	other.Epsilon, other.Seed, other.BlobStd = 1e-3, 77, 0.5
	pa, err := NewPlan(spec(base))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPlan(spec(other))
	if err != nil {
		t.Fatal(err)
	}
	if pa.Hash == pb.Hash {
		t.Fatal("the inert fields left the spec hash: the canonical encoding must keep them")
	}
	for i := range pa.Cells {
		a, err := pa.RunCellState(NewCellState(), pa.Cells[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := pb.RunCellState(NewCellState(), pb.Cells[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: metrics differ between specs that differ only in inert K-means fields", pa.CellLabel(pa.Cells[i]))
		}
	}
}
