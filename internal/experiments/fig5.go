package experiments

import (
	"fmt"
	"io"

	"dynasym/internal/metrics"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// Fig5Result holds, per policy, the high-priority place histogram and the
// per-core work times of the same run.
type Fig5Result struct {
	Policies []string
	Hists    [][]metrics.PlaceShare
	CoreBusy [][]float64 // [policy][core] seconds
	Makespan []float64
	Cores    int
}

// fig5 runs the priority-task placement analysis (Figure 5): the
// distribution of high-priority tasks over execution places, per scheduler,
// for the MatMul DAG at parallelism 2 with the co-runner on Denver core 0 —
// the Figure 4a scenario restricted to P=2, read out as place histograms
// and per-core work times (Figure 6) instead of throughput.
func fig5(scale Scale, seed uint64) *Fig5Result {
	spec := SweepConfig{
		Kernel:       workloads.MatMul,
		Parallelisms: []int{2},
		Seed:         seed,
		Scale:        scale,
	}.fig4Spec()
	spec.Name = "fig5"
	sres := scenario.MustRun(spec)
	res := &Fig5Result{Policies: sres.Policies, Cores: sres.Topo.NumCores()}
	for pi := range sres.Policies {
		run := sres.Cells[pi][0].Run()
		res.Hists = append(res.Hists, run.HighHist)
		res.CoreBusy = append(res.CoreBusy, run.CoreBusy)
		res.Makespan = append(res.Makespan, run.Makespan)
	}
	return res
}

// Render prints the place distribution per policy (the paper's pie charts
// as percentage lists).
func (r *Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "# Figure 5: distribution of priority tasks over execution places (MatMul, P=2)")
	for i, p := range r.Policies {
		fmt.Fprintf(w, "%-8s", p)
		for k, ps := range r.Hists[i] {
			if ps.Frac < 0.001 || k > 7 {
				break
			}
			fmt.Fprintf(w, "  %s=%0.1f%%", ps.Place, ps.Frac*100)
		}
		fmt.Fprintln(w)
	}
}

// Share returns the fraction of priority tasks policy `name` placed on
// places whose leader is `leader` (any width), for shape assertions.
func (r *Fig5Result) Share(name string, leader int) float64 {
	for i, p := range r.Policies {
		if p != name {
			continue
		}
		total := 0.0
		for _, ps := range r.Hists[i] {
			if ps.Place.Leader == leader {
				total += ps.Frac
			}
		}
		return total
	}
	return 0
}

// Fig6Result renders the per-core work time view of the Figure 5 runs.
type Fig6Result struct{ *Fig5Result }

// fig6 runs the Figure 5 scenario and returns the per-core work time
// result.
func fig6(scale Scale, seed uint64) *Fig6Result { return &Fig6Result{fig5(scale, seed)} }

// Render prints per-core cumulative kernel work time and the total
// execution time per scheduler (the paper's Figure 6 bars).
func (r *Fig6Result) Render(w io.Writer) {
	fmt.Fprintln(w, "# Figure 6: per-core work time [s] and total execution time (MatMul, P=2, co-run on core 0)")
	fmt.Fprintf(w, "%-8s", "policy")
	for c := 0; c < r.Cores; c++ {
		fmt.Fprintf(w, "   core%-2d", c)
	}
	fmt.Fprintf(w, "%9s\n", "total")
	for i, p := range r.Policies {
		fmt.Fprintf(w, "%-8s", p)
		for _, v := range r.CoreBusy[i] {
			fmt.Fprintf(w, "%9.2f", v)
		}
		fmt.Fprintf(w, "%9.2f\n", r.Makespan[i])
	}
}

// CoreTime returns policy `name`'s work time on a core.
func (r *Fig5Result) CoreTime(name string, coreID int) float64 {
	for i, p := range r.Policies {
		if p == name {
			return r.CoreBusy[i][coreID]
		}
	}
	return 0
}
