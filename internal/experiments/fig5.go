package experiments

import (
	"fmt"
	"io"

	"dynasym/internal/metrics"
	"dynasym/internal/scenario"
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

// fig5Of reads the priority-task placement analysis (Figure 5) off the
// fig5 family's result: per scheduler, the distribution of high-priority
// tasks over execution places and the per-core work times of the same run,
// for the MatMul DAG at parallelism 2 with the co-runner on Denver core 0.
func fig5Of(res *scenario.Result) *Fig5Result {
	r := &Fig5Result{Policies: res.Policies, Cores: res.Topo.NumCores()}
	for pi := range res.Policies {
		run := res.Cells[pi][0].Run()
		r.Hists = append(r.Hists, run.HighHist)
		r.CoreBusy = append(r.CoreBusy, run.CoreBusy)
		r.Makespan = append(r.Makespan, run.Makespan)
	}
	return r
}

// fig5 is Figure 5's view of the fig5 family.
func fig5(res *scenario.Result) Renderer { return fig5Of(res) }

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

// fig6 is Figure 6's view of the fig5 family: the per-core work times.
func fig6(res *scenario.Result) Renderer { return &Fig6Result{fig5Of(res)} }

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
