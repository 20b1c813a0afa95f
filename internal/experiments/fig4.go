package experiments

import (
	"fmt"

	"dynasym/internal/core"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// SweepConfig parameterizes the throughput sweeps of Figures 4 and 7: the
// schedulers in Policies (default: all seven) over the DAG parallelisms in
// Parallelisms (default 2–6) of one synthetic kernel on the TX2.
type SweepConfig struct {
	Kernel       workloads.KernelKind
	Parallelisms []int
	Policies     []core.Policy
	Seed         uint64
	Scale        Scale
}

func (c SweepConfig) defaults() SweepConfig {
	if len(c.Parallelisms) == 0 {
		c.Parallelisms = []int{2, 3, 4, 5, 6}
	}
	if len(c.Policies) == 0 {
		c.Policies = core.All()
	}
	return c
}

// spec assembles the declarative scenario of a defaults-filled config under
// one disturbance.
func (c SweepConfig) spec(fig string, disturb scenario.Disturbance) scenario.Spec {
	wcfg := workloads.SyntheticConfig{Kernel: c.Kernel}.Defaults()
	wcfg.Tasks = c.Scale.tasks(wcfg.Tasks, 600)
	return scenario.Spec{
		Name:     fmt.Sprintf("%s-%s", fig, c.Kernel),
		Platform: scenario.PlatformSpec{Preset: "tx2"},
		Workload: scenario.WorkloadSpec{Kind: scenario.Synthetic, Synthetic: wcfg},
		Disturb:  []scenario.Disturbance{disturb},
		Policies: c.Policies,
		Points:   scenario.ParallelismPoints(c.Parallelisms...),
		Seed:     c.Seed,
	}
}

// coRunShare is the fraction of the victim core left to the runtime by the
// co-runner of Figures 4, 5, 6 and 8: equal time-sharing.
const coRunShare = 0.5

// fig4Spec is the co-running interference scenario (Figure 4): a serial
// co-runner pinned to Denver core 0 for the whole execution. MatMul and
// Stencil face a compute-bound co-runner (CPU interference); Copy faces a
// streaming one (memory interference), which also leaves the victim cluster
// 0.8 of its memory bandwidth. Figures 5 and 6 reuse it for their
// single-point analyses.
func (c SweepConfig) fig4Spec() scenario.Spec {
	disturb := scenario.Disturbance{Kind: scenario.CoRunCPU, Cores: []int{0}, Share: coRunShare}
	if c.Kernel == workloads.Copy {
		disturb.Kind, disturb.BWFactor = scenario.CoRunMemory, 0.8
	}
	return c.defaults().spec("fig4", disturb)
}

// Fig4 runs the co-running interference experiment and returns the
// throughput grid.
func Fig4(cfg SweepConfig) *ThroughputGrid {
	cfg = cfg.defaults()
	res := scenario.MustRun(cfg.fig4Spec())
	title := fmt.Sprintf("Figure 4 (%s): throughput under co-running interference on core 0", cfg.Kernel)
	return gridFrom(res, title, "P", cfg.Parallelisms)
}
