package scenario

import (
	"os"
	"strings"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/workloads"
)

// smallSynthetic is a fast TX2 matmul spec used across the engine tests.
func smallSynthetic(policies ...core.Policy) Spec {
	return Spec{
		Name:     "engine-test",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul,
			Tasks:  600,
		}},
		Policies: policies,
		Points:   ParallelismPoints(2, 4),
		Seed:     42,
	}
}

func TestRunGridShape(t *testing.T) {
	res, err := Run(smallSynthetic(core.RWS(), core.DAMC()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || len(res.Cells[0]) != 2 {
		t.Fatalf("grid shape %dx%d, want 2x2", len(res.Cells), len(res.Cells[0]))
	}
	for pi := range res.Cells {
		for xi := range res.Cells[pi] {
			c := res.Cells[pi][xi]
			if len(c.Runs) != 1 {
				t.Fatalf("cell %s/%s has %d runs, want 1", c.Policy, c.Point.Label, len(c.Runs))
			}
			r := c.Run()
			if r.Throughput <= 0 || r.Makespan <= 0 || r.TasksDone != 600 {
				t.Errorf("cell %s/%s: tput=%v makespan=%v tasks=%d", c.Policy, c.Point.Label, r.Throughput, r.Makespan, r.TasksDone)
			}
		}
	}
	if res.Cell("DAM-C", "P2") == nil || res.Cell("DAM-C", "nope") != nil {
		t.Errorf("Cell lookup broken")
	}
	var b strings.Builder
	res.WriteTable(&b)
	if !strings.Contains(b.String(), "DAM-C") {
		t.Errorf("WriteTable missing policy row:\n%s", b.String())
	}
}

func TestRepetitionsGetDistinctSeeds(t *testing.T) {
	s := smallSynthetic(core.DAMC())
	s.Points = ParallelismPoints(2)
	s.Reps = 3
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Cells[0][0].Runs
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(runs))
	}
	if runs[0].Seed != s.Seed {
		t.Errorf("rep 0 seed %d, want base seed %d", runs[0].Seed, s.Seed)
	}
	seen := map[uint64]bool{}
	for _, r := range runs {
		if seen[r.Seed] {
			t.Errorf("duplicate rep seed %d", r.Seed)
		}
		seen[r.Seed] = true
		if r.Throughput <= 0 {
			t.Errorf("rep with seed %d has zero throughput", r.Seed)
		}
	}
	if mean := res.Throughputs()[0][0]; mean <= 0 {
		t.Errorf("mean throughput %v", mean)
	}
}

// The engine must produce identical results no matter how many executor
// workers run the grid — single-runtime and distributed cells alike, both
// on whatever runtimes the workers' states hold from the earlier grid.
func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	heat := smallSynthetic(core.All()...)
	heat.Points = nil
	heat.Workload = WorkloadSpec{Kind: HeatDist, Heat: smallHeat(3)}
	want := map[WorkloadKind]string{}
	for _, workers := range []int{1, 2, 4} {
		useExecutor(t, workers)
		for _, s := range []Spec{smallSynthetic(core.All()...), heat} {
			s.Reps = 2
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			kind, fp := s.Workload.Kind, res.Fingerprint()
			if want[kind] == "" {
				want[kind] = fp
			}
			if fp != want[kind] {
				t.Fatalf("%v: %d workers changed results", kind, workers)
			}
		}
	}
}

func TestPointAlphaOverride(t *testing.T) {
	s := smallSynthetic(core.DAMC())
	s.Points = []Point{
		{Label: "slow", Parallelism: 2, Alpha: 0.2},
		{Label: "fast", Parallelism: 2, Alpha: 1.0},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	slow := res.Cell("DAM-C", "slow").Run()
	fast := res.Cell("DAM-C", "fast").Run()
	if slow.Throughput == fast.Throughput {
		t.Errorf("alpha override had no effect: both %v tasks/s", slow.Throughput)
	}
}

func TestCriticalityVariants(t *testing.T) {
	base := smallSynthetic(core.DAMC())
	base.Points = ParallelismPoints(2)
	tputs := map[string]float64{}
	for _, crit := range []string{CritUser, CritInferred, CritNone} {
		s := base
		s.Workload.Criticality = crit
		res, err := Run(s)
		if err != nil {
			t.Fatalf("criticality %q: %v", crit, err)
		}
		tputs[crit] = res.Cells[0][0].Run().Throughput
	}
	// The annotations matter: stripping them must not beat user marks at
	// spine-bound parallelism (the infer ablation's finding).
	if tputs[CritNone] >= tputs[CritUser] {
		t.Errorf("no-priority run (%.0f) should trail user-annotated (%.0f)", tputs[CritNone], tputs[CritUser])
	}
}

func TestDistributedHeatCell(t *testing.T) {
	s := Spec{
		Name:     "heat-test",
		Platform: PlatformSpec{Preset: "haswell-node"},
		Workload: WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: 2, Iters: 8, BlocksPerNode: 20}},
		Disturb:  []Disturbance{{Kind: CoRunCPU, Node: 1, Cores: []int{0, 1}, Share: 0.5}},
		Policies: []core.Policy{core.DAMC()},
		Seed:     42,
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Cells[0][0].Run()
	if r.TasksDone == 0 || r.Throughput <= 0 {
		t.Fatalf("distributed run empty: %+v", r)
	}
	if want := 2 * res.Topo.NumCores(); len(r.CoreBusy) != want {
		t.Errorf("CoreBusy has %d entries, want %d (2 nodes)", len(r.CoreBusy), want)
	}
	total := 0.0
	for _, ps := range r.HighHist {
		total += ps.Frac
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("merged histogram fractions sum to %v, want 1", total)
	}
}

// A 16-core 4-cluster platform run through the Sampled O(K) search — the
// scale the paper leaves as future work.
func TestScaleOutSixteenCores(t *testing.T) {
	s := Spec{
		Name:     "scaleout-smoke",
		Platform: PlatformSpec{Preset: "scaleout-4x4"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul,
			Tasks:  1200,
		}},
		Disturb:  []Disturbance{{Kind: Burst, Cluster: 1, Share: 0.5, BusyDur: 0.2, IdleDur: 0.2}},
		Policies: []core.Policy{core.RWS(), core.DAMC(), core.NewSampled(core.DAMC(), 8)},
		Points:   ParallelismPoints(8, 16),
		Seed:     42,
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Topo.NumCores() != 16 || res.Topo.NumClusters() != 4 {
		t.Fatalf("platform is %s, want 16 cores in 4 clusters", res.Topo)
	}
	if testing.Verbose() {
		res.WriteTable(os.Stdout)
	}
	for pi := range res.Cells {
		for xi := range res.Cells[pi] {
			if res.Cells[pi][xi].Run().Throughput <= 0 {
				t.Errorf("cell %s/%s produced no throughput", res.Policies[pi], res.Points[xi].Label)
			}
		}
	}
	// The asymmetry-aware policies must beat random stealing at high
	// parallelism on the asymmetric scale-out platform.
	rws := res.Cell("RWS", "P16").Run().Throughput
	damc := res.Cell("DAM-C", "P16").Run().Throughput
	sampled := res.Cell("DAM-C~8", "P16").Run().Throughput
	if damc <= rws {
		t.Errorf("DAM-C (%.0f) should beat RWS (%.0f) on the asymmetric platform", damc, rws)
	}
	if sampled <= rws {
		t.Errorf("Sampled DAM-C~8 (%.0f) should beat RWS (%.0f)", sampled, rws)
	}
}

func TestRunErrorsCarryContext(t *testing.T) {
	s := smallSynthetic(core.DAMC())
	s.Policies = nil
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "empty policy set") {
		t.Fatalf("want validation error, got %v", err)
	}
}
