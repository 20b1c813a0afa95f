package scenario

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/workloads"
)

// planSpec is the determinism-regression shape: every Table-1 policy runs
// it in TestPlanMergeMatchesRun below.
func planSpec(pol core.Policy) Spec {
	return Spec{
		Name:     "plan-" + pol.Name(),
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul,
			Tasks:  600,
		}},
		Disturb: []Disturbance{
			{Kind: Burst, Cluster: 1, Share: 0.4, BusyDur: 0.1, IdleDur: 0.2, PhaseStep: 0.05},
		},
		Policies: []core.Policy{pol},
		Points:   ParallelismPoints(2, 4),
		Reps:     2,
		Seed:     42,
	}
}

// TestPlanMergeMatchesRun is the refactor's bit-identity gate: for every
// Table-1 policy, executing the plan cell by cell and merging must produce
// the same fingerprint as the monolithic Run — cells are a lossless
// decomposition of the grid.
func TestPlanMergeMatchesRun(t *testing.T) {
	for _, pol := range core.All() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			t.Parallel()
			s := planSpec(pol)
			direct, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlan(s)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(s.Policies) * len(s.Points) * s.Reps; len(p.Cells) != want {
				t.Fatalf("plan has %d cells, want %d", len(p.Cells), want)
			}
			byHash := make(map[string]RunMetrics, len(p.Cells))
			// Run the cells in reverse order to prove order independence.
			for i := len(p.Cells) - 1; i >= 0; i-- {
				c := p.Cells[i]
				rm, err := p.RunCellState(NewCellState(), c)
				if err != nil {
					t.Fatalf("cell %s: %v", p.CellLabel(c), err)
				}
				byHash[c.Hash] = rm
			}
			merged, err := Merge(p, byHash)
			if err != nil {
				t.Fatal(err)
			}
			if merged.Fingerprint() != direct.Fingerprint() {
				t.Fatalf("Plan/RunCell/Merge diverged from Run:\n--- run\n%s\n--- merged\n%s",
					direct.Fingerprint(), merged.Fingerprint())
			}
		})
	}
}

// TestAssembleMatchesRun: a Result assembled from the cells' metrics in plan
// order, one merged from a map by cell hash, and a monolithic Run are one
// result, text and digest, for every registered family with repetitions and
// a per-point alpha — and for a grid with a point that repeats another's
// parameters under a new label, whose cells share that point's hashes. The
// Summary of the same cells has the Result's digest and throughputs, bit for
// bit.
func TestAssembleMatchesRun(t *testing.T) {
	specs := map[string]Spec{}
	for _, name := range Names() {
		f, _ := Lookup(name)
		s := f.Spec(0.05)
		s.Reps = 2
		s.Points = append([]Point(nil), s.withDefaults().Points...)
		s.Points[0].Alpha = 0.37
		specs[name] = s
	}
	twin := specs["burst-sweep"]
	twin.Points = append(twin.Points[:len(twin.Points):len(twin.Points)], Point{Label: "P4-again", Parallelism: 4})
	specs["burst-sweep+twin"] = twin
	for name, s := range specs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := NewPlan(s)
			if err != nil {
				t.Fatal(err)
			}
			runs := make([]RunMetrics, len(p.Cells))
			byHash := make(map[string]RunMetrics, len(p.Cells))
			st := NewCellState()
			for i, c := range p.Cells {
				if runs[i], err = p.RunCellState(st, c); err != nil {
					t.Fatalf("%s: %v", p.CellLabel(c), err)
				}
				byHash[c.Hash] = runs[i]
			}
			if name == "burst-sweep+twin" && len(byHash) == len(p.Cells) {
				t.Error("the twin point's cells share no hash with the point it repeats")
			}
			merged, err := Merge(p, byHash)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			text, fp := direct.FingerprintText(), direct.Fingerprint()
			for how, res := range map[string]*Result{"Assemble": p.Assemble(runs), "Merge": merged} {
				if res.FingerprintText() != text || res.Fingerprint() != fp {
					t.Errorf("%s diverged from Run", how)
				}
			}
			sums := make([]RunSummary, len(runs))
			for i := range runs {
				sums[i] = runs[i].Summary()
			}
			sum := p.Summarize(sums)
			if sum.Fingerprint() != fp {
				t.Error("Summarize's fingerprint diverged from Run's")
			}
			want, got := direct.Throughputs(), sum.Throughputs()
			for pi := range want {
				for xi := range want[pi] {
					if math.Float64bits(got[pi][xi]) != math.Float64bits(want[pi][xi]) {
						t.Errorf("%s/%s: summary throughput %v, result %v", sum.Policies[pi], sum.Points[xi].Label, got[pi][xi], want[pi][xi])
					}
				}
			}
		})
	}
}

// TestAssembleAllocs: assembling a 21-cell result from its filled array is
// the Result, its two axes and its two-level grid — no copy of any cell.
func TestAssembleAllocs(t *testing.T) {
	f, _ := Lookup("burst-sweep")
	p, err := NewPlan(f.Spec(0.05))
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]RunMetrics, len(p.Cells))
	if len(runs) != 21 {
		t.Fatalf("burst-sweep@0.05 has %d cells, want 21", len(runs))
	}
	var res *Result
	if allocs := testing.AllocsPerRun(100, func() { res = p.Assemble(runs) }); allocs > 5 {
		t.Errorf("Assemble of 21 cells made %.0f allocations, want at most 5", allocs)
	}
	if &res.Cells[6][2].Runs[0] != &runs[20] {
		t.Error("the last cell's run is a copy, not the array's slot")
	}
}

// TestCellHashesSharedAcrossOverlappingSpecs: cells common to two specs
// that differ only in grid axes (name, extra point, extra policy) must
// carry identical hashes — that sharing is what the service's cell cache
// keys on.
func TestCellHashesSharedAcrossOverlappingSpecs(t *testing.T) {
	a := planSpec(core.DAMC())
	b := a
	b.Name = "other-name"
	b.Points = ParallelismPoints(2, 4, 8)
	b.Policies = []core.Policy{core.DAMC(), core.RWS()}
	pa, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPlan(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Hash == pb.Hash {
		t.Fatal("distinct specs share a spec hash")
	}
	for _, ca := range pa.Cells {
		cb, err := pb.Cell(0, ca.Point, ca.Rep) // DAM-C is policy 0 in both
		if err != nil {
			t.Fatal(err)
		}
		if cb.Hash != ca.Hash {
			t.Errorf("shared cell %s hashes differently across overlapping specs", pa.CellLabel(ca))
		}
	}
	// The extra point's cells must NOT collide with the shared ones.
	seen := map[string]bool{}
	for _, c := range pa.Cells {
		seen[c.Hash] = true
	}
	for rep := 0; rep < b.Reps; rep++ {
		c, err := pb.Cell(0, 2, rep)
		if err != nil {
			t.Fatal(err)
		}
		if seen[c.Hash] {
			t.Errorf("new point P8 rep %d reuses an existing cell hash", rep)
		}
	}
}

// TestCellHashIgnoresLabel: a point's label names it in reports but cannot
// change its metrics, so it must not change the cell key.
func TestCellHashIgnoresLabel(t *testing.T) {
	a := planSpec(core.DAMC())
	a.Points = []Point{{Label: "two", Parallelism: 2}}
	b := planSpec(core.DAMC())
	b.Points = []Point{{Label: "deux", Parallelism: 2}}
	pa, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPlan(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Cells[0].Hash != pb.Cells[0].Hash {
		t.Error("relabeling a point changed its cell hash")
	}
}

// TestCellHashSensitivity: everything that CAN change a cell's metrics
// must change its hash.
func TestCellHashSensitivity(t *testing.T) {
	base := planSpec(core.DAMC())
	hash0 := func(s Spec) string {
		t.Helper()
		p, err := NewPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		return p.Cells[0].Hash
	}
	ref := hash0(base)
	mutations := map[string]func(*Spec){
		"seed":      func(s *Spec) { s.Seed++ },
		"alpha":     func(s *Spec) { s.Alpha = 0.9 },
		"platform":  func(s *Spec) { s.Platform.Preset = "haswell16"; s.Disturb = nil },
		"workload":  func(s *Spec) { s.Workload.Synthetic.Tasks = 601 },
		"disturb":   func(s *Spec) { s.Disturb[0].Share = 0.5 },
		"policy":    func(s *Spec) { s.Policies = []core.Policy{core.RWS()} },
		"point":     func(s *Spec) { s.Points[0].Parallelism = 3 },
		"pt-alpha":  func(s *Spec) { s.Points[0].Alpha = 0.7 },
		"width-cap": func(s *Spec) { s.Platform.WidthCap = 1 },
	}
	for name, mutate := range mutations {
		s := base
		s.Disturb = append([]Disturbance(nil), base.Disturb...)
		s.Points = append([]Point(nil), base.Points...)
		mutate(&s)
		if hash0(s) == ref {
			t.Errorf("mutation %q did not change the cell hash", name)
		}
	}
}

// TestPlanCellBounds: grid lookups outside the axes must error, not panic.
func TestPlanCellBounds(t *testing.T) {
	p, err := NewPlan(planSpec(core.DAMC()))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][3]int{{-1, 0, 0}, {1, 0, 0}, {0, 2, 0}, {0, 0, 2}} {
		if _, err := p.Cell(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("Cell(%v) accepted an out-of-grid position", bad)
		}
	}
	if _, err := p.RunCellState(NewCellState(), CellJob{Policy: 99}); err == nil {
		t.Error("RunCell accepted an out-of-grid cell")
	}
}

// TestMergeMissingCell: an incomplete result set must fail loudly.
func TestMergeMissingCell(t *testing.T) {
	p, err := NewPlan(planSpec(core.DAMC()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(p, map[string]RunMetrics{}); err == nil ||
		!strings.Contains(err.Error(), "missing cell result") {
		t.Fatalf("Merge with no cells: err = %v", err)
	}
}

// TestProgressMonotonic: the Progress hook must observe a strictly
// monotonic done count even with many concurrent workers finishing cells
// out of order — the regression this locks is the old atomic-increment
// pattern where the hook could see 4 before 3.
func TestProgressMonotonic(t *testing.T) {
	s := planSpec(core.DAMC())
	s.Points = ParallelismPoints(2, 3, 4, 5)
	s.Reps = 4
	useExecutor(t, 8)
	var mu sync.Mutex
	var calls [][2]int
	s.Progress = func(done, total int) {
		mu.Lock()
		calls = append(calls, [2]int{done, total})
		mu.Unlock()
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	total := len(s.Points) * s.Reps
	if len(calls) != total+1 {
		t.Fatalf("hook called %d times, want %d (initial + one per cell)", len(calls), total+1)
	}
	for i, c := range calls {
		if c[1] != total {
			t.Errorf("call %d reported total %d, want %d", i, c[1], total)
		}
		if c[0] != i {
			t.Errorf("call %d reported done=%d; reported sequence is not monotonic by 1", i, c[0])
		}
	}
}

// TestPlanBuildsPlatformAndModelOnce pins the sharing the cold path leans
// on: NewPlan keeps the one platform its validation built and nothing after
// it builds another — node 0's model and the merged Result are on that very
// platform — and however many workers run a plan's cells concurrently, the
// configured machine models (one per node; a heat plan builds all of its
// nodes' in the one build) are built exactly once, on the first cell (the
// race detector checks that sharing them is sound). A plan that is only
// merged from cached cells builds no model at all.
func TestPlanBuildsPlatformAndModelOnce(t *testing.T) {
	var models atomic.Int32
	planBuildHook = func() { models.Add(1) }
	defer func() { planBuildHook = nil }()

	synthetic := planSpec(core.DAMC())
	heat := planSpec(core.DAMC())
	heat.Points = nil
	heat.Workload = WorkloadSpec{Kind: HeatDist, Heat: smallHeat(3)}
	heat.Disturb = append(heat.Disturb, Disturbance{Kind: CoRunCPU, Node: 2, Cores: []int{0}, Share: 0.5})
	for _, s := range []Spec{synthetic, heat} {
		models.Store(0)
		s.Policies = core.All()
		p, err := NewPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		if p.topo == nil || models.Load() != 0 {
			t.Fatalf("%v: planning kept platform %v and built %d models, want one platform and no model", s.Workload.Kind, p.topo, models.Load())
		}
		const workers = 4
		results := make([]RunMetrics, len(p.Cells))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st := NewCellState()
				for ci := w; ci < len(p.Cells); ci += workers {
					rm, err := p.RunCellState(st, p.Cells[ci])
					if err != nil {
						t.Errorf("%s: %v", p.CellLabel(p.Cells[ci]), err)
						return
					}
					results[ci] = rm
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		byHash := make(map[string]RunMetrics, len(p.Cells))
		for i, c := range p.Cells {
			byHash[c.Hash] = results[i]
		}
		res, err := Merge(p, byHash)
		if err != nil {
			t.Fatal(err)
		}
		if models.Load() != 1 {
			t.Fatalf("%v: %d cells on %d workers plus a merge built the models %d times, want once",
				s.Workload.Kind, len(p.Cells), workers, models.Load())
		}
		if res.Topo != p.topo || p.models[0].Platform() != p.topo {
			t.Fatalf("%v: the merged result or node 0's model is on a platform built after NewPlan", s.Workload.Kind)
		}

		cached, err := NewPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		fromCache, err := Merge(cached, byHash)
		if err != nil {
			t.Fatal(err)
		}
		if models.Load() != 1 || fromCache.Topo != cached.topo {
			t.Fatalf("%v: a plan merged from cached cells built %d models or a second platform, want neither",
				s.Workload.Kind, models.Load()-1)
		}
		direct, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if fp := direct.Fingerprint(); res.Fingerprint() != fp || fromCache.Fingerprint() != fp {
			t.Fatalf("%v: cells run on a shared platform and model diverge from a monolithic Run", s.Workload.Kind)
		}
	}
}
