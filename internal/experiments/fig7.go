package experiments

import (
	"fmt"

	"dynasym/internal/scenario"
)

// fig7Spec is the DVFS scenario (Figure 7): the Denver cluster's clock
// alternates between 2035 MHz and 345 MHz with a 10-second period (5 s + 5 s)
// while the synthetic DAGs run; no co-runner.
func (c SweepConfig) fig7Spec() scenario.Spec {
	return c.defaults().spec("fig7", scenario.PaperDVFS(0))
}

// Fig7 runs the DVFS experiment and returns the throughput grid.
func Fig7(cfg SweepConfig) *ThroughputGrid {
	cfg = cfg.defaults()
	res := scenario.MustRun(cfg.fig7Spec())
	title := fmt.Sprintf("Figure 7 (%s): throughput under DVFS on the Denver cluster", cfg.Kernel)
	return gridFrom(res, title, "P", cfg.Parallelisms)
}
