package experiments

import (
	"fmt"
	"io"

	"dynasym/internal/core"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// Ablations beyond the paper isolate single design decisions of the runtime.
// The policy-set and alpha ablations are families (internal/scenario); the
// width and inference ablations compare several specs, so they are drivers.

// ablationAlpha is the alpha ablation's view of its family: DAM-C's
// throughput at each PTT weight under DVFS.
func ablationAlpha(res *scenario.Result) Renderer {
	r := &AlphaResult{}
	for xi, pt := range res.Points {
		r.Alphas = append(r.Alphas, pt.Alpha)
		r.Tput = append(r.Tput, res.Cells[0][xi].Run().Throughput)
	}
	return r
}

// AlphaResult holds the DVFS alpha sweep.
type AlphaResult struct {
	Alphas []float64
	Tput   []float64
}

// Render prints the sweep.
func (r *AlphaResult) Render(w io.Writer) {
	fmt.Fprintln(w, "# Ablation: PTT new-sample weight under DVFS (DAM-C, MatMul, P=4)")
	for i, a := range r.Alphas {
		fmt.Fprintf(w, "alpha=%.1f  %10.0f tasks/s\n", a, r.Tput[i])
	}
}

// ablationInfer compares user-annotated criticality against CATS-style
// inferred criticality (dag.InferCriticality) and against no priorities at
// all, for DAM-C on the Figure 4a scenario at parallelism 2 and 4. The
// paper defers dynamic criticality inference to related work; this
// quantifies what the runtime loses when the user provides no annotations.
func ablationInfer(scale float64, seed uint64) *ThroughputGrid {
	grid := &ThroughputGrid{
		Title:    "Ablation: user-annotated vs inferred vs absent criticality (DAM-C, MatMul co-run)",
		XLabel:   "P",
		X:        []int{2, 4},
		Policies: []string{"user", "inferred", "none"},
		Tput:     make([][]float64, 3),
	}
	variants := []string{scenario.CritUser, scenario.CritInferred, scenario.CritNone}
	fig4a, _ := scenario.Lookup("fig4a")
	base := fig4a.Spec(scale)
	base.Policies = []core.Policy{core.DAMC()}
	base.Points = scenario.ParallelismPoints(grid.X...)
	base.Seed = seed
	for row, variant := range variants {
		spec := base
		spec.Name = "ablation-infer-" + grid.Policies[row]
		spec.Workload.Criticality = variant
		grid.Tput[row] = scenario.MustRun(spec).Throughputs()[0]
	}
	return grid
}

// ablationWidth compares the full TX2 against a width-capped TX2 (all
// widths forced to 1) under DVFS at low parallelism, quantifying the
// moldability contribution in isolation.
func ablationWidth(scale float64, seed uint64) *ThroughputGrid {
	pols := []core.Policy{core.DA(), core.DAMP()}
	grid := &ThroughputGrid{
		Title:    "Ablation: moldability disabled via width-1 platform (Stencil, DVFS)",
		XLabel:   "P",
		X:        []int{2, 3},
		Policies: []string{"DA/w1", "DAM-P/w1", "DA", "DAM-P"},
	}
	wcfg := workloads.SyntheticConfig{Kernel: workloads.Stencil}.Defaults()
	wcfg.Tasks = scenario.ScaleTasks(wcfg.Tasks, scale, 600)
	for _, widthCap := range []int{1, 0} {
		sres := scenario.MustRun(scenario.Spec{
			Name:     fmt.Sprintf("ablation-width-cap%d", widthCap),
			Platform: scenario.PlatformSpec{Preset: "tx2", WidthCap: widthCap},
			Workload: scenario.WorkloadSpec{Kind: scenario.Synthetic, Synthetic: wcfg},
			Disturb:  []scenario.Disturbance{scenario.PaperDVFS(0)},
			Policies: pols,
			Points:   scenario.ParallelismPoints(grid.X...),
			Seed:     seed + 7,
		})
		grid.Tput = append(grid.Tput, sres.Throughputs()...)
	}
	return grid
}
