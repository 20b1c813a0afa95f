package scenario

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/dagio"
	"dynasym/internal/lru"
	"dynasym/internal/workloads"
)

// rebuildFor makes cell c of the plan run on a workload built for it alone —
// build, freeze, run, without the compiled cache or a graph another cell has
// read.
func rebuildFor(p *Plan, c CellJob) {
	w := resolve(p.Spec.Workload, p.Spec.Points[c.Point])
	compiled, _, _ := p.variants()
	compiled[c.Point] = &compiledWorkload{build: func() ([]*dag.Graph, error) { return buildGraphs(w) }}
}

// uncompiledFingerprint runs the spec with every cell rebuilding its graph
// from the builder — the pre-PR6 behavior — and returns the result
// fingerprint.
func uncompiledFingerprint(t *testing.T, s Spec) string {
	t.Helper()
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[string]RunMetrics, len(p.Cells))
	for _, c := range p.Cells {
		rebuildFor(p, c)
		rm, err := p.RunCellState(NewCellState(), c)
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

// TestCompiledMatchesUncompiled is the tentpole's determinism gate: for
// every Table-1 policy and for each compilable workload kind (both dag
// kinds, the synthetic builder and K-means), the compiled-workload path
// must produce a byte-identical fingerprint to rebuilding the graph per
// cell.
func TestCompiledMatchesUncompiled(t *testing.T) {
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
	}
	for _, k := range kinds {
		for _, pol := range core.All() {
			k, pol := k, pol
			t.Run(k.name+"/"+pol.Name(), func(t *testing.T) {
				t.Parallel()
				s := Spec{
					Name:     "compiled-vs-uncompiled",
					Platform: PlatformSpec{Preset: "tx2"},
					Workload: k.w,
					Policies: []core.Policy{pol},
					Points:   k.pts,
					Reps:     2,
					Seed:     7,
				}
				res, err := Run(s)
				if err != nil {
					t.Fatal(err)
				}
				compiled := res.Fingerprint()
				if compiled == "" {
					t.Fatal("empty fingerprint")
				}
				if uncompiled := uncompiledFingerprint(t, s); compiled != uncompiled {
					t.Fatalf("compiled and uncompiled runs diverged:\n--- compiled\n%s\n--- uncompiled\n%s",
						compiled, uncompiled)
				}
			})
		}
	}
}

// Plans of the same spec must share one compiled workload through the
// process-wide cache, and points resolving to different graphs must not.
func TestPlansShareCompiledWorkloads(t *testing.T) {
	s := Spec{
		Name:     "share-compiled",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 5}},
		Policies: []core.Policy{core.RWS(), core.DAMC()},
		Points:   ParallelismPoints(2, 4),
		Reps:     2,
	}
	p1, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	// Both points override the generator width, so they are distinct
	// variants — but each variant is shared across the two plans.
	if p1.PointVariant(0) == p1.PointVariant(1) {
		t.Fatal("points with different parallelism overrides share a variant")
	}
	c1, _, _ := p1.variants()
	c2, _, _ := p2.variants()
	for xi := range s.Points {
		if c1[xi] != c2[xi] {
			t.Errorf("point %d: two plans of one spec hold different compiled workloads", xi)
		}
	}
	// A rep-only sweep has a single variant: all cells share one graph.
	single, err := NewPlan(Spec{
		Name:     "single-variant",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 5}},
		Policies: []core.Policy{core.RWS()},
		Reps:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if single.PointVariant(0) != 0 {
		t.Errorf("single-point plan variant = %d, want 0", single.PointVariant(0))
	}
}

// TestRunStopsDispatchAfterFailure pins the satellite bugfix: a failed
// cell must stop dispatch of the cells after it (no pointless simulation
// of a doomed grid), while the returned error stays the deterministic
// lowest-index failure.
func TestRunStopsDispatchAfterFailure(t *testing.T) {
	var ran atomic.Int64
	runCellHook = func(p *Plan, c CellJob) (RunMetrics, error, bool) {
		ran.Add(1)
		if c.Rep == 3 || c.Rep == 6 {
			return RunMetrics{}, errInjected(c.Rep), true
		}
		return RunMetrics{}, nil, true
	}
	defer func() { runCellHook = nil }()
	useExecutor(t, 1)
	_, err := Run(failureGrid(8))
	if err == nil {
		t.Fatal("Run succeeded despite injected failures")
	}
	// Two reps fail; the reported one must be the lower index even though
	// dispatch stops early.
	if !strings.Contains(err.Error(), "(rep 3)") {
		t.Errorf("error %q does not name the lowest failing cell (rep 3)", err)
	}
	if n := ran.Load(); n >= 8 {
		t.Errorf("all %d cells were simulated despite the mid-grid failure", n)
	} else if n < 4 {
		t.Errorf("only %d cells ran; every cell up to the failure must be dispatched", n)
	}
}

type errInjected int

func (e errInjected) Error() string { return "injected failure" }

// clearCompiled empties the process-wide compiled cache: other tests compile
// the same families.
func clearCompiled() {
	compiledMu.Lock()
	compiled = lru.New[*compiledWorkload](compiledCacheCap)
	compiledMu.Unlock()
}

// TestPlanFilesVariantsOnceConcurrently: a new plan files no workload variant;
// the first of several goroutines that run its cells and ask for its variants
// at once files them, each variant compiles once, and every cell's digest is
// a serial run's. Run it under -race: the plan's variants are state all of
// them reach.
func TestPlanFilesVariantsOnceConcurrently(t *testing.T) {
	var builds atomic.Int32
	compileHook = func(*dag.Graph) { builds.Add(1) }
	defer func() { compileHook = nil }()
	f, _ := Lookup("burst-sweep")
	s := f.Spec(0.05)

	serial, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][32]byte, len(serial.Cells))
	st := NewCellState()
	for i, c := range serial.Cells {
		rm, err := serial.RunCellState(st, c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rm.digest
	}

	clearCompiled()
	builds.Store(0)
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := CompiledCacheLen(); n != 0 {
		t.Fatalf("planning filed %d workload variants, want none", n)
	}
	const workers = 4
	got := make([][32]byte, len(p.Cells))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := NewCellState()
			for ci := w; ci < len(p.Cells); ci += workers {
				c := p.Cells[ci]
				if w%2 == 0 {
					_ = p.PointVariant(c.Point)
				}
				rm, err := p.RunCellState(st, c)
				if err != nil {
					t.Error(err)
					return
				}
				got[ci] = rm.digest
				_ = p.PointVariant(c.Point)
			}
		}(w)
	}
	wg.Wait()
	if n := CompiledCacheLen(); n != len(s.Points) || builds.Load() != int32(len(s.Points)) {
		t.Errorf("%d goroutines filed %d variants and built %d graphs, want %d of each", workers, n, builds.Load(), len(s.Points))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: digest %x run concurrently, %x serially", p.CellLabel(p.Cells[i]), got[i], want[i])
		}
	}
}

// One immutable graph per variant: a grid builds and freezes each of its
// workload variants once — never a graph per cell, and nothing re-freezes a
// shared graph (Freeze takes a fresh snapshot every call, so the pointer
// tells) — whichever of the executor's workers run the cells. HeatDist is a
// variant like any other: one graph per node, built by the first cell, read
// by every cell of every plan with that heat config.
func TestGridCompilesEachVariantOnce(t *testing.T) {
	var mu sync.Mutex
	built := map[*dag.Graph]*dag.Frozen{}
	compileHook = func(g *dag.Graph) {
		mu.Lock()
		defer mu.Unlock()
		built[g] = g.Snapshot()
	}
	defer func() { compileHook = nil }()
	clearCompiled()
	useExecutor(t, 2)

	f, _ := Lookup("burst-sweep")
	sweep := f.Spec(0.05)
	heat := Spec{
		Name:     "compile-heat",
		Platform: PlatformSpec{Preset: "haswell-node"},
		Workload: WorkloadSpec{Kind: HeatDist, Heat: smallHeat(4)},
		Policies: []core.Policy{core.RWS(), core.DAMC(), core.DAMP()},
		Reps:     2,
	}
	for _, c := range []struct {
		name         string
		spec         Spec
		cells, built int
	}{
		{"burst-sweep@0.05", sweep, 21, len(sweep.Points)},
		{"4-node heat", heat, 6, 4},
		{"4-node heat, second plan", heat, 6, 0},
	} {
		clear(built)
		p, err := NewPlan(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Cells) != c.cells || len(built) != 0 {
			t.Fatalf("%s: planning made %d cells and built %d graphs, want %d cells and no graph", c.name, len(p.Cells), len(built), c.cells)
		}
		if _, err := Run(c.spec); err != nil {
			t.Fatal(err)
		}
		if len(built) != c.built {
			t.Errorf("%s: %d cells built %d graphs, want %d", c.name, c.cells, len(built), c.built)
		}
		for g, fz := range built {
			if fz == nil || g.Snapshot() != fz {
				t.Errorf("%s: a compiled graph left the compile unfrozen or was frozen again by a cell", c.name)
			}
		}
	}
}
