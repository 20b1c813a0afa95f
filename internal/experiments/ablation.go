package experiments

import (
	"fmt"
	"io"
	"strings"

	"dynasym/internal/core"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// Ablations beyond the paper: they isolate the contribution of individual
// design decisions of the runtime (wake-time routing, the no-steal rule for
// critical tasks, the PTT weight, and the dHEFT baseline). Each is a spec table over the scenario engine, usually a
// policy-set or platform variation of the Figure 4a/7 scenarios (README.md,
// "How the paper's figures map onto specs"; EXPERIMENTS.md lists the rows).

// stealablePolicy wraps a policy and re-enables stealing of high-priority
// tasks, ablating the paper's "disable stealing of high priority tasks"
// rule.
type stealablePolicy struct{ core.Policy }

func (p stealablePolicy) Name() string             { return p.Policy.Name() + "+steal" }
func (p stealablePolicy) AllowPrioritySteal() bool { return true }

// noWakePolicy wraps a policy and disables wake-time routing, leaving only
// the dispatch-time decision: newly ready critical tasks stay on the waking
// worker's queue.
type noWakePolicy struct{ core.Policy }

func (p noWakePolicy) Name() string { return p.Policy.Name() + "-wake" }
func (p noWakePolicy) WakePlace(*core.Context) (int, bool) {
	return 0, false
}

// AblationConfig selects the variant set and reuses the Figure 4a scenario
// (MatMul DAG, co-runner on Denver core 0).
type AblationConfig struct {
	Variant      string // one of ablationVariants: "steal", "wake", "dheft", "sampled"
	Parallelisms []int
	Seed         uint64
	Scale        Scale
}

// ablationVariants are the policy-set comparisons ablation knows.
var ablationVariants = []struct {
	name, title string
	policies    []core.Policy
}{
	{"steal", "Ablation: stealing of high-priority tasks re-enabled",
		[]core.Policy{core.DAMC(), stealablePolicy{core.DAMC()}, core.DAMP(), stealablePolicy{core.DAMP()}}},
	{"wake", "Ablation: wake-time routing disabled (dispatch-only placement)",
		[]core.Policy{core.DAMC(), noWakePolicy{core.DAMC()}, core.DA(), noWakePolicy{core.DA()}}},
	{"dheft", "Ablation: dHEFT earliest-finish-time baseline",
		[]core.Policy{core.RWS(), core.DHEFT(), core.DA(), core.DAMC()}},
	{"sampled", "Ablation: sampled global search (the paper's scalability future work)",
		[]core.Policy{core.DAMC(), core.NewSampled(core.DAMC(), 4), core.NewSampled(core.DAMC(), 16)}},
}

// ablation runs the selected variant comparison.
func ablation(cfg AblationConfig) (*ThroughputGrid, error) {
	if len(cfg.Parallelisms) == 0 {
		cfg.Parallelisms = []int{2, 4, 6}
	}
	var names []string
	for _, v := range ablationVariants {
		if v.name == cfg.Variant {
			grid := fig4(SweepConfig{
				Kernel:       workloads.MatMul,
				Parallelisms: cfg.Parallelisms,
				Policies:     v.policies,
				Seed:         cfg.Seed,
				Scale:        cfg.Scale,
			})
			grid.Title = v.title
			return grid, nil
		}
		names = append(names, v.name)
	}
	return nil, fmt.Errorf("experiments: unknown ablation variant %q (want %s)", cfg.Variant, strings.Join(names, "|"))
}

// ablationAlpha sweeps the PTT weight under DVFS (complementing Figure 8's
// co-run sweep): adaptation speed matters most when conditions flip every
// five seconds. The sweep is the Figure 7 scenario with one point per
// alpha.
func ablationAlpha(scale Scale, seed uint64) *AlphaResult {
	alphas := []float64{1.0 / 5, 2.0 / 5, 3.0 / 5, 4.0 / 5, 1.0}
	spec := SweepConfig{
		Kernel:   workloads.MatMul,
		Policies: []core.Policy{core.DAMC()},
		Seed:     seed,
		Scale:    scale,
	}.fig7Spec()
	spec.Name = "ablation-alpha"
	spec.Points = nil
	for _, alpha := range alphas {
		spec.Points = append(spec.Points, scenario.Point{
			Label:       fmt.Sprintf("w%g", alpha),
			Parallelism: 4,
			Alpha:       alpha,
		})
	}
	sres := scenario.MustRun(spec)
	res := &AlphaResult{Alphas: alphas}
	for xi := range spec.Points {
		res.Tput = append(res.Tput, sres.Cells[0][xi].Run().Throughput)
	}
	return res
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
// all, on the Figure 4a scenario. The paper defers dynamic criticality
// inference to related work; this quantifies what the runtime loses when
// the user provides no annotations.
func ablationInfer(cfg AblationConfig) *ThroughputGrid {
	if len(cfg.Parallelisms) == 0 {
		cfg.Parallelisms = []int{2, 4}
	}
	grid := &ThroughputGrid{
		Title:    "Ablation: user-annotated vs inferred vs absent criticality (DAM-C, MatMul co-run)",
		XLabel:   "P",
		X:        cfg.Parallelisms,
		Policies: []string{"user", "inferred", "none"},
		Tput:     make([][]float64, 3),
	}
	variants := []string{scenario.CritUser, scenario.CritInferred, scenario.CritNone}
	base := SweepConfig{
		Kernel:       workloads.MatMul,
		Parallelisms: cfg.Parallelisms,
		Policies:     []core.Policy{core.DAMC()},
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
	}.fig4Spec()
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
func ablationWidth(scale Scale, seed uint64) *ThroughputGrid {
	pols := []core.Policy{core.DA(), core.DAMP()}
	grid := &ThroughputGrid{
		Title:    "Ablation: moldability disabled via width-1 platform (Stencil, DVFS)",
		XLabel:   "P",
		X:        []int{2, 3},
		Policies: []string{"DA/w1", "DAM-P/w1", "DA", "DAM-P"},
	}
	wcfg := workloads.SyntheticConfig{Kernel: workloads.Stencil}.Defaults()
	wcfg.Tasks = scale.tasks(wcfg.Tasks, 600)
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
