package scenario

import (
	"fmt"

	"dynasym/internal/core"
	"dynasym/internal/workloads"
)

// The paper's figures that are one grid each (Section 5: Figures 4 to 8) and
// the policy-set ablations, as families; internal/experiments renders each
// family's result in its figure's layout.

// coRun is the co-runner of Figures 4, 5, 6 and 8: a serial program
// time-sharing Denver core 0 equally for the whole run. MatMul and Stencil
// face a compute-bound one; Copy faces a streaming one, which also leaves the
// victim cluster 0.8 of its memory bandwidth.
func coRun(k workloads.KernelKind) Disturbance {
	if k == workloads.Copy {
		return Disturbance{Kind: CoRunMemory, Cores: []int{0}, Share: 0.5, BWFactor: 0.8}
	}
	return Disturbance{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5}
}

// denverDVFS is the DVFS wave of Figure 7 on the Denver cluster (2035 MHz
// and 345 MHz, 5 s each); no co-runner.
func denverDVFS(workloads.KernelKind) Disturbance { return PaperDVFS(0) }

// tx2Family is the scenario of Figures 4 to 7: one synthetic kernel's DAG on
// the TX2 under one disturbance, over DAG parallelisms. Policies are named
// as core.ByName reads them; none means the seven of Table 1.
func tx2Family(name, desc string, k workloads.KernelKind, disturb func(workloads.KernelKind) Disturbance, policies []string, ps ...int) Family {
	return Family{Name: name, Desc: desc, Spec: func(scale float64) Spec {
		return tx2Spec(name, k, scale, disturb(k), policies, ParallelismPoints(ps...))
	}}
}

// tx2Spec is tx2Family's spec over any points; the policies are built per
// call, so no two specs share a slice.
func tx2Spec(name string, k workloads.KernelKind, scale float64, disturb Disturbance, policies []string, points []Point) Spec {
	pols := core.All()
	if policies != nil {
		pols = make([]core.Policy, len(policies))
		for i, p := range policies {
			var err error
			if pols[i], err = core.ByName(p); err != nil {
				panic(err) // the family table names only policies ByName resolves
			}
		}
	}
	wcfg := workloads.SyntheticConfig{Kernel: k}.Defaults()
	wcfg.Tasks = ScaleTasks(wcfg.Tasks, scale, 600)
	return Spec{
		Name:     name,
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: wcfg},
		Disturb:  []Disturbance{disturb},
		Policies: pols,
		Points:   points,
		Seed:     42,
	}
}

// paperAlphas are the PTT new-sample weights of Figure 8 and the alpha
// ablation: 1/5 … 5/5.
var paperAlphas = []float64{1.0 / 5, 2.0 / 5, 3.0 / 5, 4.0 / 5, 1.0}

// fig8Spec is the sensitivity analysis of Figure 8: DAM-C's MatMul
// throughput over the tile size × PTT weight cross product (tile-major)
// under the Figure 4 co-runner. Parallelism 2 keeps the run spine-bound,
// where critical-task placement flips caused by noisy measurements of short
// tasks (tile 32) cost throughput.
func fig8Spec(scale float64) Spec {
	var points []Point
	for _, tile := range []int{32, 64, 80, 96} {
		for _, alpha := range paperAlphas {
			points = append(points, Point{Label: fmt.Sprintf("t%d/w%g", tile, alpha), Tile: tile, Alpha: alpha})
		}
	}
	s := tx2Spec("fig8", workloads.MatMul, scale, coRun(workloads.MatMul), []string{"DAM-C"}, points)
	s.Workload.Synthetic = workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: ScaleTasks(32000, scale, 600), Parallelism: 2}
	return s
}

// ablationAlphaSpec sweeps the PTT weight under Figure 7's DVFS wave, where
// conditions flip every five seconds: DAM-C, MatMul, parallelism 4.
func ablationAlphaSpec(scale float64) Spec {
	points := make([]Point, len(paperAlphas))
	for i, alpha := range paperAlphas {
		points[i] = Point{Label: fmt.Sprintf("w%g", alpha), Parallelism: 4, Alpha: alpha}
	}
	return tx2Spec("ablation-alpha", workloads.MatMul, scale, PaperDVFS(0), []string{"DAM-C"}, points)
}
