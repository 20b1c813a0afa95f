package scenario

import (
	"fmt"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/workloads"
)

// Family is a named scenario generator. The scale argument shrinks task
// counts (1.0 = full scale) and, in the families beyond the paper, time
// windows with them, so a family behaves the same shape-wise at test scale
// as at paper scale; the paper's figures keep the paper's fixed waves.
type Family struct {
	Name string
	Desc string
	Spec func(scale float64) Spec
}

// Lookup returns a built-in family by name.
func Lookup(name string) (Family, bool) {
	for _, f := range families {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// Names lists the built-in families in sorted order.
func Names() []string {
	out := make([]string, len(families))
	for i, f := range families {
		out[i] = f.Name
	}
	return out
}

// CheckScale refuses a scale factor outside [0, 1] (0, like 1, is full
// scale): a -1 or a 5 is a mistake, not a request for the paper-scale grid.
func CheckScale(s float64) error {
	if !(s >= 0 && s <= 1) {
		return fmt.Errorf("scale %v outside (0, 1] (0 means full scale)", s)
	}
	return nil
}

// clampScale normalizes a scale factor into (0, 1].
func clampScale(s float64) float64 {
	if s <= 0 || s > 1 {
		return 1
	}
	return s
}

// ScaleTasks shrinks a task count by scale (outside (0, 1]: unscaled),
// keeping at least min.
func ScaleTasks(n int, scale float64, min int) int {
	scaled := int(float64(n) * clampScale(scale))
	if scaled < min {
		return min
	}
	return scaled
}

// ParallelismPoints builds a sweep over DAG parallelism.
func ParallelismPoints(ps ...int) []Point {
	pts := make([]Point, len(ps))
	for i, p := range ps {
		pts[i] = Point{Label: fmt.Sprintf("P%d", p), Parallelism: p}
	}
	return pts
}

// families is the table of built-in families, sorted by name
// (TestRegistryNames holds it sorted and free of duplicates): the paper's
// one-grid figures and ablations (paper.go), and families that extend the
// evaluation with conditions it never ran. cmd/asymbench -exp and the
// daemon's {"family": …} both run them by name.
var families = []Family{
	{Name: "ablation-alpha", Desc: "ablation: DAM-C MatMul throughput at parallelism 4 over the PTT weight (1/5-5/5) under the Denver DVFS wave", Spec: ablationAlphaSpec},
	tx2Family("ablation-dheft", "ablation: the dHEFT earliest-finish-time baseline beside RWS, DA and DAM-C on the fig4a scenario",
		workloads.MatMul, coRun, []string{"RWS", "dHEFT", "DA", "DAM-C"}, 2, 4, 6),
	tx2Family("ablation-sampled", "ablation: DAM-C's sampled global search (K = 4, 16) beside the exhaustive one on the fig4a scenario",
		workloads.MatMul, coRun, []string{"DAM-C", "DAM-C~4", "DAM-C~16"}, 2, 4, 6),
	tx2Family("ablation-steal", "ablation: DAM-C and DAM-P with stealing of high-priority tasks re-enabled, on the fig4a scenario",
		workloads.MatMul, coRun, []string{"DAM-C", "DAM-C+steal", "DAM-P", "DAM-P+steal"}, 2, 4, 6),
	tx2Family("ablation-wake", "ablation: DAM-C and DA with wake-time routing disabled (dispatch-only placement), on the fig4a scenario",
		workloads.MatMul, coRun, []string{"DAM-C", "DAM-C-wake", "DA", "DA-wake"}, 2, 4, 6),
	{
		Name: "burst-sweep",
		Desc: "TX2 MatMul under phase-shifted bursty co-runners sweeping the A57 cluster (plus an independent burst on Denver core 1)",
		Spec: func(scale float64) Spec {
			f := clampScale(scale)
			return Spec{
				Name:     "burst-sweep",
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
					Kernel: workloads.MatMul,
					Tasks:  ScaleTasks(32000, f, 600),
				}},
				Disturb: []Disturbance{
					{Kind: Burst, Cluster: 1, Share: 0.4, BusyDur: 1.5 * f, IdleDur: 3 * f, PhaseStep: 1.0 * f},
					{Kind: Burst, Cores: []int{1}, Share: 0.5, BusyDur: 2 * f, IdleDur: 4 * f},
				},
				Policies: core.All(),
				Points:   ParallelismPoints(2, 4, 6),
				Seed:     42,
			}
		},
	},
	{
		Name: "cholesky-sweep",
		Desc: "tiled Cholesky DAGs (POTRF/TRSM/SYRK/GEMM) on TX2 under a bursty A57 co-runner, sweeping the tile-grid edge",
		Spec: func(scale float64) Spec {
			f := clampScale(scale)
			// Scale shrinks the tile grids (task count is ~T³/6) while
			// the labels keep naming the nominal size, so a 0.1-scale
			// sweep still has three distinct, comparable points.
			pts := make([]Point, 0, 3)
			for _, T := range []int{8, 12, 16} {
				pts = append(pts, Point{Label: fmt.Sprintf("T%d", T), Tile: ScaleTasks(T, f, 3+len(pts))})
			}
			return Spec{
				Name:     "cholesky-sweep",
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky}},
				Disturb: []Disturbance{
					{Kind: Burst, Cluster: 1, Share: 0.4, BusyDur: 0.3 * f, IdleDur: 0.6 * f, PhaseStep: 0.2 * f},
				},
				Policies: core.All(),
				Points:   pts,
				Seed:     42,
			}
		},
	},
	{
		Name: "dag-import-demo",
		Desc: "the bundled examples/dag/demo.dot graph through the DOT importer under a paper-style DVFS wave (scale only trims reps; imported graphs have fixed shape)",
		Spec: func(scale float64) Spec {
			reps := 3
			if clampScale(scale) < 0.5 {
				reps = 1
			}
			return Spec{
				Name:     "dag-import-demo",
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: WorkloadSpec{Kind: DAGFile, DAG: dagio.Demo()},
				Disturb:  []Disturbance{PaperDVFS(1)},
				Policies: core.All(),
				Reps:     reps,
				Seed:     42,
			}
		},
	},
	tx2Family("fig4a", "Figure 4a: TX2 MatMul throughput of the seven schedulers over DAG parallelism 2-6, co-runner on Denver core 0",
		workloads.MatMul, coRun, nil, 2, 3, 4, 5, 6),
	tx2Family("fig4b", "Figure 4b: TX2 Copy throughput of the seven schedulers over DAG parallelism 2-6, memory co-runner on Denver core 0",
		workloads.Copy, coRun, nil, 2, 3, 4, 5, 6),
	tx2Family("fig4c", "Figure 4c: TX2 Stencil throughput of the seven schedulers over DAG parallelism 2-6, co-runner on Denver core 0",
		workloads.Stencil, coRun, nil, 2, 3, 4, 5, 6),
	tx2Family("fig5", "Figures 5 and 6: where the seven schedulers run critical MatMul tasks at parallelism 2, co-runner on Denver core 0",
		workloads.MatMul, coRun, nil, 2),
	tx2Family("fig7a", "Figure 7a: TX2 MatMul throughput of the seven schedulers over DAG parallelism 2-6 under the Denver DVFS wave",
		workloads.MatMul, denverDVFS, nil, 2, 3, 4, 5, 6),
	tx2Family("fig7b", "Figure 7b: TX2 Copy throughput of the seven schedulers over DAG parallelism 2-6 under the Denver DVFS wave",
		workloads.Copy, denverDVFS, nil, 2, 3, 4, 5, 6),
	tx2Family("fig7c", "Figure 7c: TX2 Stencil throughput of the seven schedulers over DAG parallelism 2-6 under the Denver DVFS wave",
		workloads.Stencil, denverDVFS, nil, 2, 3, 4, 5, 6),
	{Name: "fig8", Desc: "Figure 8: DAM-C MatMul throughput over tile size (32-96) x PTT weight (1/5-5/5), co-runner on Denver core 0", Spec: fig8Spec},
	{
		Name: "random-layered",
		Desc: "seeded random layered DAGs (mixed cpu/mem/mix task classes) on TX2 with a throttling Denver cluster, sweeping layer width",
		Spec: func(scale float64) Spec {
			f := clampScale(scale)
			return Spec{
				Name:     "random-layered",
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{
					Model:  dagio.ModelRandomLayered,
					Layers: ScaleTasks(96, f, 12),
					Degree: 3,
					Seed:   7,
				}},
				Disturb: []Disturbance{
					{Kind: Throttle, Cluster: 0, From: 1.5 * f, To: 4.5 * f, Floor: 0.3, RampSteps: 6},
				},
				Policies: core.All(),
				Points:   ParallelismPoints(4, 8, 16),
				Seed:     42,
			}
		},
	},
	scaleoutFamily(16, 4, 4),
	scaleoutFamily(32, 4, 8),
	scaleoutFamily(64, 8, 8),
	{
		Name: "throttle-ramp",
		Desc: "TX2 Stencil while the Denver cluster thermal-throttles to 30% mid-run and never recovers",
		Spec: func(scale float64) Spec {
			f := clampScale(scale)
			return Spec{
				Name:     "throttle-ramp",
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
					Kernel: workloads.Stencil,
					Tasks:  ScaleTasks(20000, f, 600),
				}},
				Disturb: []Disturbance{
					{Kind: Throttle, Cluster: 0, From: 2.5 * f, To: 7.5 * f, Floor: 0.3, RampSteps: 6},
				},
				Policies: core.All(),
				Points:   ParallelismPoints(2, 4, 6),
				Seed:     42,
			}
		},
	},
}

// scaleoutFamily returns the family of one big/little scale-out platform:
// cores = clusters × per cores.
func scaleoutFamily(cores, clusters, per int) Family {
	return Family{
		Name: fmt.Sprintf("scaleout-%d", cores),
		Desc: fmt.Sprintf("%d-core %d-cluster big/little platform exercising the O(K) Sampled search at high parallelism", cores, clusters),
		Spec: func(scale float64) Spec {
			f := clampScale(scale)
			// One slow burst per little (odd) cluster, phase-staggered
			// across clusters, keeps the asymmetry dynamic at scale.
			var bursts []Disturbance
			for ci := 1; ci < clusters; ci += 2 {
				bursts = append(bursts, Disturbance{
					Kind: Burst, Cluster: ci, Share: 0.5,
					BusyDur: 2 * f, IdleDur: 2 * f,
					Phase0: float64(ci/2) * f,
				})
			}
			return Spec{
				Name:     fmt.Sprintf("scaleout-%d", cores),
				Platform: PlatformSpec{Preset: fmt.Sprintf("scaleout-%dx%d", clusters, per)},
				Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
					Kernel: workloads.MatMul,
					Tasks:  ScaleTasks(32000, scale, 1200),
				}},
				Disturb: bursts,
				Policies: []core.Policy{
					core.RWS(),
					core.DAMC(),
					core.NewSampled(core.DAMC(), 8),
					core.NewSampled(core.DAMC(), 32),
				},
				Points: ParallelismPoints(8, 16),
				Seed:   42,
			}
		},
	}
}
