package experiments

import (
	"fmt"
	"io"

	"dynasym/internal/core"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// fig10Spec assembles the distributed scenario: one runtime per Haswell
// node on a shared clock and the engine's default interconnect, a
// compute-bound interferer on five cores of node 0's socket 0 from `warmup`
// seconds onward (0 = the whole run).
func fig10Spec(name string, hdCfg workloads.HeatDistConfig, pols []core.Policy, seed uint64, warmup float64) scenario.Spec {
	disturb := scenario.Disturbance{Kind: scenario.CoRunCPU, Node: 0, Cores: []int{0, 1, 2, 3, 4}, Share: 0.35}
	if warmup > 0 {
		disturb.From, disturb.To = warmup, 1e18
	}
	return scenario.Spec{
		Name:     name,
		Platform: scenario.PlatformSpec{Preset: "haswell-node"},
		Workload: scenario.WorkloadSpec{Kind: scenario.HeatDist, Heat: hdCfg},
		Disturb:  []scenario.Disturbance{disturb},
		Policies: pols,
		Seed:     seed,
	}
}

// Fig10Result holds throughput per policy.
type Fig10Result struct {
	Policies []string
	Tput     []float64
	Makespan []float64
	Tasks    int64
	// Warmup is the time at which the interferer started.
	Warmup float64
}

// fig10 runs the distributed 2D Heat experiment (Figure 10): four
// dual-socket 10-core nodes run the stencil with critical boundary-exchange
// (MPI) tasks while the interferer occupies node 0. The paper evaluates RWS,
// RWSM-C, DA, DAM-C and DAM-P.
func fig10(scale float64, seed uint64) *Fig10Result {
	hdCfg := workloads.HeatDistConfig{}.Defaults()
	hdCfg.Iters = scenario.ScaleTasks(hdCfg.Iters, scale, 10)
	// Calibrate the iteration pace (DAM-C, a few iterations) so the
	// co-runner can start after a training window, as in the paper ("the
	// co-running application starts a few iterations after the start
	// ensuring a reasonable window for training").
	calibCfg := hdCfg
	calibCfg.Iters = 10
	calib := scenario.MustRun(fig10Spec("fig10-calibration", calibCfg, []core.Policy{core.DAMC()}, seed, 0))
	iterTime := calib.Cells[0][0].Run().Makespan / float64(calibCfg.Iters)
	warmup := 8 * iterTime

	pols := []core.Policy{core.RWS(), core.RWSMC(), core.DA(), core.DAMC(), core.DAMP()}
	sres := scenario.MustRun(fig10Spec("fig10", hdCfg, pols, seed, warmup))
	res := &Fig10Result{Policies: sres.Policies, Warmup: warmup}
	for pi := range sres.Policies {
		run := sres.Cells[pi][0].Run()
		res.Tput = append(res.Tput, run.Throughput)
		res.Makespan = append(res.Makespan, run.Makespan)
		res.Tasks = run.TasksDone
	}
	return res
}

// Render prints the per-policy throughput bars.
func (r *Fig10Result) Render(w io.Writer) {
	fmt.Fprintln(w, "# Figure 10: distributed 2D Heat throughput on 4 nodes (interference on node 0, socket 0)")
	max := 0.0
	for _, v := range r.Tput {
		if v > max {
			max = v
		}
	}
	for i, p := range r.Policies {
		fmt.Fprintf(w, "%-8s%10.0f tasks/s  %s\n", p, r.Tput[i], bar(r.Tput[i], max, 40))
	}
}

// Get returns the throughput of a policy by name.
func (r *Fig10Result) Get(policy string) float64 {
	for i, p := range r.Policies {
		if p == policy {
			return r.Tput[i]
		}
	}
	return 0
}
